#include "core/system.hpp"

#include "common/contracts.hpp"

namespace byzcast::core {

ByzCastSystem::ByzCastSystem(sim::ExecutionEnv& env, OverlayTree tree, int f,
                             const FaultPlan& faults, Routing routing,
                             Observability obs)
    : env_(env), tree_(std::move(tree)), f_(f), routing_(routing), obs_(obs) {
  BZC_EXPECTS(tree_.finalized());
  if (obs_.metrics != nullptr || obs_.spans != nullptr ||
      obs_.monitors != nullptr) {
    env_.attach_observability(obs_);
  }
  for (const GroupId g : tree_.all_groups()) {
    // One placement domain per overlay group: concurrent backends map this
    // to their default thread-per-group executor assignment.
    env_.set_placement_domain(g.value);
    const std::vector<bft::FaultSpec> group_faults = faults.for_group(g);
    const bft::AppFactory factory = [this, &group_faults](int index) {
      const bft::FaultSpec spec =
          group_faults.empty() ? bft::FaultSpec::correct()
                               : group_faults[static_cast<std::size_t>(index)];
      return std::make_unique<ByzCastNode>(tree_, registry_, log_, spec,
                                           routing_, obs_);
    };
    auto grp = std::make_unique<bft::Group>(env_, g, f_, factory,
                                            group_faults);
    registry_.emplace(g, grp->info());
    groups_.emplace(g, std::move(grp));
  }
}

ByzCastNode& ByzCastSystem::node(GroupId g, int index) {
  auto& app = group(g).replica(index).application();
  return static_cast<ByzCastNode&>(app);
}

std::unique_ptr<Client> ByzCastSystem::make_client(const std::string& name) {
  env_.set_placement_domain(next_client_domain_++);
  return std::make_unique<Client>(env_, tree_, registry_, name, routing_);
}

}  // namespace byzcast::core
