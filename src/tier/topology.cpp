#include "tier/topology.h"

#include "common/error.h"

namespace lowdiff::tier {

std::shared_ptr<TierTopology> TierTopology::for_cluster(
    const sim::ClusterSpec& cluster, const SimOptions& opts) {
  auto topo = std::make_shared<TierTopology>();
  const std::size_t servers = cluster.servers();
  std::size_t tier_index = 0;
  auto faults_for = [&](std::size_t index) {
    FaultSpec spec = opts.faults;
    // Decorrelate the per-tier fault streams; same seed => same topology.
    spec.seed = SplitMix64(opts.faults.seed ^ (0x7137u + index)).next();
    return spec;
  };
  for (std::size_t s = 0; s < servers; ++s) {
    if (opts.local_ssd) {
      TierTarget t;
      t.name = "ssd.s" + std::to_string(s);
      t.kind = TierKind::kLocalSsd;
      t.failure_domain = s;
      auto stack = make_stacked_backend(cluster.storage, faults_for(tier_index++),
                                        opts.time_scale, t.name);
      t.backend = stack.root;
      t.base = stack.base;
      t.faults = stack.faults;
      t.read_bytes_per_sec = cluster.storage_read_bytes_per_sec;
      t.volatile_storage = false;
      topo->add(std::move(t));
    }
    if (opts.peer_memory) {
      TierTarget t;
      t.name = "mem.s" + std::to_string(s);
      t.kind = TierKind::kPeerMemory;
      t.failure_domain = s;
      auto stack = make_stacked_backend(cluster.network, faults_for(tier_index++),
                                        opts.time_scale, t.name);
      t.backend = stack.root;
      t.base = stack.base;
      t.faults = stack.faults;
      t.read_bytes_per_sec = cluster.network.bytes_per_sec;
      t.volatile_storage = true;
      topo->add(std::move(t));
    }
  }
  if (opts.remote_shared) {
    TierTarget t;
    t.name = "remote";
    t.kind = TierKind::kRemoteShared;
    t.failure_domain = kSharedDomain;
    const LinkSpec link = links::remote_storage();
    auto stack = make_stacked_backend(link, faults_for(tier_index++),
                                      opts.time_scale, t.name);
    t.backend = stack.root;
    t.base = stack.base;
    t.faults = stack.faults;
    t.read_bytes_per_sec = link.bytes_per_sec;
    t.volatile_storage = false;
    topo->add(std::move(t));
  }
  return topo;
}

void TierTopology::add(TierTarget target) {
  LOWDIFF_ENSURE(target.backend != nullptr, "tier target needs a backend");
  LOWDIFF_ENSURE(!target.name.empty(), "tier target needs a name");
  LOWDIFF_ENSURE(find(target.name) == nullptr,
                 "duplicate tier target name " + target.name);
  LOWDIFF_ENSURE(target.read_bytes_per_sec > 0, "read bandwidth must be positive");
  targets_.push_back(std::move(target));
}

TierTarget* TierTopology::find(const std::string& name) {
  for (auto& t : targets_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const TierTarget* TierTopology::find(const std::string& name) const {
  for (const auto& t : targets_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

void TierTopology::fail_domain(std::size_t domain) {
  {
    std::lock_guard lock(mutex_);
    failed_domains_.insert(domain);
  }
  for (auto& t : targets_) {
    if (t.failure_domain == domain && t.volatile_storage && t.base != nullptr) {
      t.base->clear();
    }
  }
}

void TierTopology::restore_domain(std::size_t domain) {
  std::lock_guard lock(mutex_);
  failed_domains_.erase(domain);
}

bool TierTopology::domain_failed(std::size_t domain) const {
  std::lock_guard lock(mutex_);
  return failed_domains_.contains(domain);
}

}  // namespace lowdiff::tier
