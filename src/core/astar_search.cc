#include "core/astar_search.h"

#include <cmath>

namespace kgsearch {

namespace {

/// StateKey packs stage and hops into 8 bits each, and SearchNode::depth
/// (at most n̂ · L) must fit in 16 bits; Start rejects anything larger.
constexpr size_t kMaxStageValue = 255;

uint64_t StateKey(NodeId node, uint16_t stage, uint16_t hops_in_stage) {
  return (static_cast<uint64_t>(node) << 16) |
         (static_cast<uint64_t>(stage) << 8) | hops_in_stage;
}

}  // namespace

AStarSearcher::AStarSearcher(const GraphView& graph,
                             const PredicateSpace& space,
                             const ResolvedSubQuery& subquery,
                             const AStarConfig& config)
    : graph_(graph),
      subquery_(&subquery),
      config_(config),
      weights_(graph, &space, &subquery),
      num_stages_(subquery.Length()),
      total_bound_(static_cast<double>(config.n_hat * subquery.Length())),
      // Poll cadence for should_stop and interrupt; a configured 0 would
      // mean "never poll" via a division by zero, so clamp once here for
      // every caller.
      check_interval_(config.stop_check_interval == 0
                          ? 1
                          : config.stop_check_interval),
      materialized_(graph.NumNodes() * subquery.Length(), false),
      anytime_matches_(config.anytime_match_cap == 0
                           ? SIZE_MAX
                           : config.anytime_match_cap) {
  if (config.dedup == DedupMode::kPaperNodeVisited) {
    visited_.assign(graph.NumNodes(), false);
  }
}

Result<AStarSearcher> AStarSearcher::Start(const GraphView& graph,
                                           const PredicateSpace& space,
                                           const ResolvedSubQuery& subquery,
                                           const AStarConfig& config) {
  if (!graph.base().finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  if (subquery.Length() == 0) {
    return Status::InvalidArgument("sub-query has no edges");
  }
  if (subquery.Length() > kMaxStageValue) {
    return Status::InvalidArgument("sub-query must have at most 255 edges");
  }
  if (config.n_hat == 0) {
    return Status::InvalidArgument("n_hat must be >= 1");
  }
  if (config.n_hat > kMaxStageValue) {
    return Status::InvalidArgument("n_hat must be <= 255");
  }
  if (config.tau <= 0.0 || config.tau > 1.0) {
    return Status::InvalidArgument("tau must be in (0, 1]");
  }
  if (config.anytime && !config.should_stop) {
    return Status::InvalidArgument("anytime mode requires should_stop");
  }

  AStarSearcher search(graph, space, subquery, config);
  // Initialization (Algorithm 1 line 1): one pseudo-state per node match of
  // the specific start node; its estimate is m(us)^(1/N̂) since the explored
  // weight product is empty.
  for (NodeId us : subquery.start_candidates) {
    if (config.dedup == DedupMode::kPaperNodeVisited) {
      search.visited_[us] = true;
    }
    double m = search.Bound(us, 0);
    double est = std::exp(std::log(m) / search.total_bound_);
    search.arena_.push_back(SearchNode{us, -1, 0, 1.0f, 0, 0, 0, 0.0});
    if (est >= config.tau - 1e-12) {
      search.queue_.push(QueueEntry{
          est, search.seq_++,
          static_cast<int32_t>(search.arena_.size()) - 1, false});
      ++search.stats_.pushed;
    } else {
      ++search.stats_.pruned_tau;
    }
  }
  return search;
}

double AStarSearcher::Bound(NodeId u, uint16_t stage) {
  const size_t pair = static_cast<size_t>(u) * num_stages_ + stage;
  if (!materialized_[pair]) {
    materialized_[pair] = true;
    ++materialized_count_;
  }
  return weights_.MaxAdjacentWeight(u, stage);
}

void AStarSearcher::PushChild(const SearchNode& parent, int32_t parent_index,
                              const AdjEntry& adj, uint16_t stage,
                              uint16_t hops_in_stage) {
  // Algorithm 1 line 6: each KG node enters the queue at most once.
  if (config_.dedup == DedupMode::kPaperNodeVisited) {
    if (visited_[adj.neighbor]) {
      ++stats_.pruned_visited;
      return;
    }
    visited_[adj.neighbor] = true;
  }
  const double w = weights_.Weight(stage, adj.predicate);
  const double log_sum = parent.log_sum + std::log(w);
  const uint16_t depth = static_cast<uint16_t>(parent.depth + 1);
  const bool is_goal =
      (static_cast<size_t>(stage) + 1 == num_stages_) &&
      subquery_->node_constraints.back().Matches(graph_, adj.neighbor);
  if (is_goal) {
    // Exact pss for target node matches (Section V-A).
    const double pss = std::exp(log_sum / static_cast<double>(depth));
    if (pss < config_.tau - 1e-12) {
      ++stats_.pruned_tau;
      return;
    }
    arena_.push_back(SearchNode{adj.neighbor, parent_index, adj.predicate,
                                static_cast<float>(w), stage, hops_in_stage,
                                depth, log_sum});
    const int32_t idx = static_cast<int32_t>(arena_.size()) - 1;
    if (config_.anytime) {
      // Algorithm 2 lines 10-11: collect immediately instead of queueing.
      anytime_matches_.Push(pss, Reconstruct(idx));
      ++stats_.goals_emitted;
    } else {
      queue_.push(QueueEntry{pss, seq_++, idx, true});
      ++stats_.pushed;
    }
    return;
  }
  // Lemma 3 pruning: the estimate upper-bounds every completion's pss.
  const double m = Bound(adj.neighbor, stage);
  const double est = std::exp((log_sum + std::log(m)) / total_bound_);
  if (est < config_.tau - 1e-12) {
    ++stats_.pruned_tau;
    return;
  }
  arena_.push_back(SearchNode{adj.neighbor, parent_index, adj.predicate,
                              static_cast<float>(w), stage, hops_in_stage,
                              depth, log_sum});
  queue_.push(QueueEntry{est, seq_++, static_cast<int32_t>(arena_.size()) - 1,
                         false});
  ++stats_.pushed;
}

PathMatch AStarSearcher::Reconstruct(int32_t index) const {
  PathMatch m;
  const SearchNode& last = arena_[static_cast<size_t>(index)];
  m.pss = std::exp(last.log_sum / static_cast<double>(last.depth));
  // Walk parents back to the start pseudo-state.
  std::vector<int32_t> chain;
  for (int32_t i = index; i >= 0; i = arena_[static_cast<size_t>(i)].parent) {
    chain.push_back(i);
  }
  uint16_t prev_stage = 0;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const SearchNode& n = arena_[static_cast<size_t>(*it)];
    if (n.parent >= 0) {
      // A stage increase means the previous node matched the intermediate
      // query node between the two query edges.
      if (n.stage > prev_stage) {
        m.stage_ends.push_back(static_cast<uint32_t>(m.nodes.size()) - 1);
      }
      m.predicates.push_back(n.via_pred);
      m.weights.push_back(n.via_weight);
      prev_stage = n.stage;
    }
    m.nodes.push_back(n.node);
  }
  m.stage_ends.push_back(static_cast<uint32_t>(m.nodes.size()) - 1);
  return m;
}

Status AStarSearcher::Continue(size_t k, std::vector<PathMatch>* matches) {
  SearchStats& st = stats_;
  while (!queue_.empty()) {
    if (config_.max_expansions > 0 && st.popped >= config_.max_expansions) {
      break;
    }
    const QueueEntry entry = queue_.top();
    queue_.pop();
    ++st.popped;
    if (config_.expansion_hook) config_.expansion_hook();

    // Cooperative interruption (deadline / cancellation): polled between
    // expansions at the same cadence as the anytime stop estimator. The
    // search aborts with the interrupt's status; collected matches are
    // dropped — an interrupted query has no answer, partial or otherwise.
    if (config_.interrupt && st.popped % check_interval_ == 0) {
      Status interrupted = config_.interrupt();
      if (!interrupted.ok()) return interrupted;
    }

    const SearchNode node = arena_[static_cast<size_t>(entry.index)];
    if (entry.is_goal) {
      // Theorem 2: a popped target match is the best remaining match.
      if (++emitted_targets_[node.node] <= config_.max_matches_per_target) {
        matches->push_back(Reconstruct(entry.index));
        ++st.goals_emitted;
        if (st.goals_emitted >= k) break;
      }
      continue;
    }
    if (config_.dedup == DedupMode::kExactState &&
        !expanded_.insert(StateKey(node.node, node.stage, node.hops_in_stage))
             .second) {
      ++st.pruned_visited;
      continue;
    }
    ++st.expanded;

    // Transition 1: advance to the next query edge when the current node is
    // a node match of the intermediate query node between the two edges.
    // Runs before the continue transition so that in paper mode the
    // node-visited set cannot swallow a goal push behind a same-node
    // continue push.
    if (node.hops_in_stage >= 1 &&
        static_cast<size_t>(node.stage + 1) < num_stages_ &&
        subquery_->node_constraints[node.stage + 1].Matches(graph_,
                                                            node.node)) {
      const uint16_t next_stage = static_cast<uint16_t>(node.stage + 1);
      for (const AdjEntry& adj : graph_.Neighbors(node.node)) {
        PushChild(node, entry.index, adj, next_stage, 1);
      }
    }
    // Transition 2: continue matching the current query edge (hop budget n̂).
    if (node.hops_in_stage < config_.n_hat) {
      const uint16_t nh = static_cast<uint16_t>(node.hops_in_stage + 1);
      for (const AdjEntry& adj : graph_.Neighbors(node.node)) {
        PushChild(node, entry.index, adj, node.stage, nh);
      }
    }

    if (config_.anytime && st.popped % check_interval_ == 0 &&
        config_.should_stop(anytime_matches_.size())) {
      st.stopped_early = true;
      break;
    }
  }
  st.exhausted = queue_.empty();
  st.materialized_nodes = materialized_count_;
  if (config_.anytime) {
    for (auto& [pss, match] : anytime_matches_.TakeSortedDescending()) {
      (void)pss;  // PathMatch carries its pss already
      matches->push_back(std::move(match));
    }
  }
  return Status::OK();
}

Result<std::vector<PathMatch>> AStarSearch(const GraphView& graph,
                                           const PredicateSpace& space,
                                           const ResolvedSubQuery& subquery,
                                           const AStarConfig& config,
                                           SearchStats* stats) {
  Result<AStarSearcher> started =
      AStarSearcher::Start(graph, space, subquery, config);
  if (!started.ok()) return started.status();
  AStarSearcher& search = started.ValueOrDie();
  std::vector<PathMatch> matches;
  Status status = search.Continue(config.k, &matches);
  if (stats != nullptr) *stats = search.stats();
  KG_RETURN_NOT_OK(status);
  return matches;
}

}  // namespace kgsearch
