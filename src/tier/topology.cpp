#include "tier/topology.h"

#include "common/error.h"

namespace lowdiff::tier {

std::shared_ptr<TierTopology> TierTopology::for_cluster(
    const sim::ClusterSpec& cluster, const SimOptions& opts) {
  auto topo = std::make_shared<TierTopology>();
  auto add = [&](std::string name, TierKind kind, std::size_t domain,
                 const LinkSpec& link, double read_bytes_per_sec) {
    FaultSpec faults = opts.faults;
    // Decorrelate the per-tier fault streams; same seed => same topology.
    faults.seed =
        SplitMix64(opts.faults.seed ^ (0x7137u + topo->size())).next();
    auto stack = make_stacked_backend(link, faults, opts.time_scale, name);
    TierTarget t;
    t.name = std::move(name);
    t.kind = kind;
    t.failure_domain = domain;
    t.backend = stack.root;
    t.base = stack.base;
    t.faults = stack.faults;
    t.read_bytes_per_sec = read_bytes_per_sec;
    t.volatile_storage = kind == TierKind::kPeerMemory;  // RAM dies with it
    topo->add(std::move(t));
  };
  for (std::size_t s = 0; s < cluster.servers(); ++s) {
    add("ssd.s" + std::to_string(s), TierKind::kLocalSsd, s, cluster.storage,
        cluster.storage_read_bytes_per_sec);
    add("mem.s" + std::to_string(s), TierKind::kPeerMemory, s, cluster.network,
        cluster.network.bytes_per_sec);
  }
  if (opts.remote_shared) {
    const LinkSpec link = links::remote_storage();
    add("remote", TierKind::kRemoteShared, kSharedDomain, link,
        link.bytes_per_sec);
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
