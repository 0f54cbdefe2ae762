// One pass of a hipbench workload.
//
//   hipbench_driver --workload NAME --seed N [--smoke] [--trace-out FILE]
//
// Builds the workload's simulated worlds through the public hipcloud API,
// runs them, and prints one JSON object on the last line of stdout: host
// wall/set-up times, peak RSS, and per-world determinism hash and request
// counts. With --trace-out the pass is the traced variant: Testbed worlds
// are composed stage by stage so each stage gets its own span, direct-call
// probes time RSA key generation and ESP batches, the result carries a
// "layers" object, and the spans are written to FILE as Chrome-trace JSON
// when the pass ends. run.py repeats passes, gates correctness and
// aggregates; see README.md.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench/sweep.hpp"
#include "cloud/shard_fabric.hpp"
#include "core/sharded_service.hpp"
#include "core/testbed.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "hip/esp.hpp"

namespace {

using namespace hipcloud;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workload shapes ---------------------------------------------------------

/// The paper's Fig. 2 client counts.
constexpr int kFig2Clients[] = {2, 3, 4, 6, 10, 20, 30, 50};

struct Arm {
  const char* name;
  core::SecurityMode mode;
  bool accelerated;  // HIP under CostModel::accelerated()
};
constexpr Arm kArms[] = {{"basic", core::SecurityMode::kBasic, false},
                         {"hip", core::SecurityMode::kHip, false},
                         {"ssl", core::SecurityMode::kSsl, false},
                         {"hip_accel", core::SecurityMode::kHip, true}};

/// Simulated run lengths. The Testbed ones are run_closed_loop()
/// durations, whose first 2 s are the clients' uncounted warm-up; the
/// sharded one is each farm's window after its own warm-up. The smoke
/// lengths only prove the plumbing and are not gated against recorded
/// hashes.
struct Windows {
  sim::Duration grid, c50, sharded;
};
constexpr Windows kFull{5 * sim::kSecond, 60 * sim::kSecond,
                        10 * sim::kSecond};
constexpr Windows kSmoke{3 * sim::kSecond, 3 * sim::kSecond, 1 * sim::kSecond};

constexpr unsigned kGridThreads = 2;
/// The sharded world runs on one PDES worker: at two, barrier stalls
/// from other tenants on a shared host swing its wall time by 2x between
/// passes of identical code. Traced passes re-run it at kTracedWorkers
/// for the barrier metrics and to check that the hash is worker-invariant.
constexpr unsigned kShardWorkers = 1;
constexpr unsigned kTracedWorkers = 2;
constexpr std::size_t kRacks = 8;
constexpr int kUsersPerRack = 8;

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  int world = 0;
  int parent = -1;  // index into the same log, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder for one world (one thread).
class SpanLog {
 public:
  SpanLog(int world, Clock::time_point origin)
      : world_(world), origin_(origin) {}

  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), world_, parent, now_ns(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    open_.pop_back();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  int world_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times `fn` as a span when `log` is set, plainly otherwise; returns
/// the elapsed seconds either way.
template <typename Fn>
double timed(SpanLog* log, const char* name, Fn&& fn) {
  if (log) {
    const int id = log->begin(name);
    fn();
    return log->end(id);
  }
  const auto t0 = Clock::now();
  fn();
  return seconds(t0, Clock::now());
}

// --- per-world results -------------------------------------------------------

struct WorldResult {
  std::string arm;
  int clients = 0;
  unsigned workers = 1;  // PDES workers (sharded worlds)
  std::uint64_t hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double throughput_rps = 0;
  double setup_s = 0;
  double steady_s = 0;

  // Filled by every pass (cheap counters the gate and layers read).
  std::uint64_t bex_completed = 0;
  std::uint64_t bex_failed = 0;
  std::uint64_t esp_packets = 0;
  std::uint64_t esp_bytes = 0;
  sim::PerfCounters perf;  // whole world

  // Traced passes only.
  double topology_s = 0, service_s = 0, warmup_s = 0;
  std::uint64_t steady_events = 0;
  std::uint64_t db_queries = 0;
  std::uint64_t proxy_retries = 0;
  double lb_cycles = 0, web_cycles = 0, db_cycles = 0;  // steady phase
  // Sharded worlds only.
  std::uint64_t steady_epochs = 0;
  double barrier_wait_s = 0;
  double workspan_bound = 0;
};

void add_hip_stats(WorldResult& r, const hip::HipDaemon* d) {
  if (!d) return;
  const auto& s = d->stats();
  r.bex_completed += s.bex_completed;
  r.bex_failed += s.bex_failed;
  r.esp_packets += s.esp_packets_out;
  r.esp_bytes += s.esp_bytes_out;
}

void read_service(WorldResult& r, core::SecureService& svc) {
  if (svc.config().mode == core::SecurityMode::kHip) {
    add_hip_stats(r, svc.lb_hip());
    for (std::size_t i = 0; i < svc.web_vms().size(); ++i) {
      add_hip_stats(r, svc.web_hip(i));
    }
    add_hip_stats(r, svc.db_hip());
  }
  r.db_queries = svc.database().queries_executed();
  r.proxy_retries = svc.proxy().retries();
}

struct Cycles {
  double lb = 0, web = 0, db = 0;
};

Cycles read_cycles(net::Node* lb, core::SecureService& svc) {
  Cycles c;
  c.lb = lb->cpu().total_cycles();
  for (cloud::Vm* vm : svc.web_vms()) {
    c.web += vm->node()->cpu().total_cycles();
  }
  c.db = svc.db_vm()->node()->cpu().total_cycles();
  return c;
}

/// The run's seed drives each world's network; the deployment's key
/// material stays at the paper sweep's seed 1, so every run generates the
/// same keys. RSA prime search time depends on the key seed, so a per-run
/// key seed would make set-up time a function of the seed rather than the
/// code.
constexpr std::uint64_t kDeploymentSeed = 1;

core::TestbedConfig testbed_config(const Arm& arm, std::uint64_t seed) {
  core::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.deployment.seed = kDeploymentSeed;
  cfg.deployment.mode = arm.mode;
  if (arm.accelerated) {
    cfg.deployment.hip.costs = crypto::CostModel::accelerated();
  }
  return cfg;
}

/// Untraced Testbed world: exactly what a user of core::Testbed runs.
WorldResult run_testbed(const Arm& arm, int clients, sim::Duration window,
                        std::uint64_t seed) {
  WorldResult r;
  r.arm = arm.name;
  r.clients = clients;
  const auto t0 = Clock::now();
  core::Testbed bed(testbed_config(arm, seed));
  const auto t1 = Clock::now();
  const apps::LoadReport rep = bed.run_closed_loop(clients, window);
  const auto t2 = Clock::now();
  r.setup_s = seconds(t0, t1);
  r.steady_s = seconds(t1, t2);
  r.completed = rep.completed;
  r.errors = rep.errors;
  r.throughput_rps = rep.throughput_rps();
  r.perf = bed.network().perf();
  r.hash = r.perf.determinism_hash;
  read_service(r, bed.service());
  return r;
}

/// Traced Testbed world: core::Testbed's constructor and
/// run_closed_loop() recomposed from their public calls so each stage
/// is its own span. It must reproduce run_testbed()'s hash and request
/// count exactly; run.py checks that it does.
WorldResult run_testbed_traced(const Arm& arm, int clients,
                               sim::Duration window, std::uint64_t seed,
                               SpanLog& log) {
  using net::IpAddr;
  using net::Ipv4Addr;
  WorldResult r;
  r.arm = arm.name;
  r.clients = clients;
  const core::TestbedConfig config = testbed_config(arm, seed);
  const int world_span =
      log.begin("world " + std::string(arm.name) + "/c" +
                std::to_string(clients));

  std::unique_ptr<net::Network> net_owner;
  std::unique_ptr<cloud::Cloud> cloud;
  net::Node* client_node = nullptr;
  net::Node* lb_node = nullptr;
  r.topology_s = timed(&log, "core.topology", [&] {
    net_owner = std::make_unique<net::Network>(config.seed);
    net::Network& net = *net_owner;
    cloud = std::make_unique<cloud::Cloud>(net, config.provider, 1);
    for (int h = 0; h < config.cloud_hosts; ++h) cloud->add_host();
    net::Node* inet = net.add_node("internet-core");
    inet->set_forwarding(true);
    client_node = net.add_node("clients", 50e9);
    lb_node = net.add_node("loadbalancer", 16e9);
    const auto cl = net.connect(client_node, inet, config.client_wan);
    client_node->add_address(cl.iface_a, Ipv4Addr(198, 18, 0, 2));
    inet->add_address(cl.iface_b, Ipv4Addr(198, 18, 0, 1));
    client_node->set_default_route(cl.iface_a);
    inet->add_route(IpAddr(Ipv4Addr(198, 18, 0, 0)), 24, cl.iface_b);
    const auto ll = net.connect(lb_node, inet, config.lb_link);
    lb_node->add_address(ll.iface_a, Ipv4Addr(198, 18, 1, 2));
    inet->add_address(ll.iface_b, Ipv4Addr(198, 18, 1, 1));
    lb_node->set_default_route(ll.iface_a);
    inet->add_route(IpAddr(Ipv4Addr(198, 18, 1, 0)), 24, ll.iface_b);
    cloud->attach_external(inet, config.provider.gateway_link);
  });
  net::Network& net = *net_owner;

  std::unique_ptr<core::SecureService> service;
  std::unique_ptr<net::TcpStack> client_tcp;
  r.service_s = timed(&log, "core.service", [&] {
    service = std::make_unique<core::SecureService>(net, *cloud, lb_node,
                                                    config.deployment);
    client_tcp = std::make_unique<net::TcpStack>(client_node);
  });

  r.warmup_s = timed(&log, "core.warmup", [&] {
    service->prepare();
    if (config.deployment.hip.keepalive_interval > 0 &&
        config.deployment.mode == core::SecurityMode::kHip) {
      net.loop().run(net.loop().now() + 15 * sim::kSecond);
    } else {
      net.loop().run();
    }
  });
  r.setup_s = r.topology_s + r.service_s + r.warmup_s;

  const Cycles before = read_cycles(lb_node, *service);
  const std::uint64_t events_before = net.perf().events_fired;
  apps::LoadReport rep;
  r.steady_s = timed(&log, "apps.closed_loop", [&] {
    apps::ClosedLoopClients::Config cfg;
    cfg.concurrency = clients;
    cfg.duration = window;
    cfg.target = service->frontend();
    cfg.mix = config.deployment.dataset;
    cfg.seed = config.seed ^ static_cast<std::uint64_t>(clients) << 8;
    apps::ClosedLoopClients farm(client_node, client_tcp.get(), cfg);
    farm.start([&](const apps::LoadReport& done) {
      rep = done;
      net.loop().stop();
    });
    net.loop().run();
  });
  const Cycles after = read_cycles(lb_node, *service);
  log.end(world_span);

  r.completed = rep.completed;
  r.errors = rep.errors;
  r.throughput_rps = rep.throughput_rps();
  r.perf = net.perf();
  r.hash = r.perf.determinism_hash;
  r.steady_events = r.perf.events_fired - events_before;
  r.lb_cycles = after.lb - before.lb;
  r.web_cycles = after.web - before.web;
  r.db_cycles = after.db - before.db;
  read_service(r, *service);
  return r;
}

/// Sharded RUBiS: the ShardedService in HIP mode on a kRacks-rack
/// fabric, run on `workers` threads. Traced and untraced passes run the
/// same calls; `log` only adds spans.
WorldResult run_sharded(sim::Duration window, std::uint64_t seed,
                        unsigned workers, SpanLog* log) {
  WorldResult r;
  r.arm = "hip";
  r.clients = static_cast<int>(kRacks) * kUsersPerRack;
  r.workers = workers;
  const int world_span =
      log ? log->begin("world sharded_rubis/w" + std::to_string(workers))
          : -1;

  cloud::FabricConfig fcfg;
  fcfg.racks = kRacks;
  fcfg.hosts_per_rack = 1;
  fcfg.vms_per_host = 1;
  fcfg.seed = seed;
  std::unique_ptr<cloud::ShardedFabric> fabric;
  r.topology_s = timed(log, "cloud.shard_fabric", [&] {
    fabric = std::make_unique<cloud::ShardedFabric>(fcfg);
  });

  core::ShardedServiceConfig scfg;
  scfg.mode = core::SecurityMode::kHip;
  // ShardedServiceConfig has one seed, for both the HIP identities and
  // the client farms' request streams, so it stays fixed with the keys.
  // The fabric's seed only feeds link loss, which is off here, so the
  // run's seed varies the requests through the catalogue size instead:
  // 500-531 items, which changes every drawn item id.
  scfg.dataset.items = 500 + (seed - 1) % 32;
  scfg.dataset.users = 100;
  scfg.dataset.bids = 1000;
  scfg.clients_per_rack = kUsersPerRack;
  scfg.duration = window;
  scfg.seed = kDeploymentSeed;
  std::unique_ptr<core::ShardedService> service;
  r.service_s = timed(log, "core.sharded_service", [&] {
    service = std::make_unique<core::ShardedService>(*fabric, scfg);
  });

  r.warmup_s = timed(log, "core.warmup", [&] {
    service->prepare();
    fabric->run(sim::kSecond, workers);  // BEX warm-up window
  });
  r.setup_s = r.topology_s + r.service_s + r.warmup_s;

  sim::ShardCoordinator& coord = fabric->world().coordinator();
  const std::uint64_t events_before = fabric->merged_perf().events_fired;
  const std::uint64_t epochs_before = coord.epochs();
  const std::uint64_t wait_before = coord.barrier_wait_ns();
  double web_before = 0;
  for (std::size_t i = 0; i < service->web_count(); ++i) {
    web_before += service->web_vm(i)->node()->cpu().total_cycles();
  }
  const double db_before = service->db_vm()->node()->cpu().total_cycles();

  r.steady_s = timed(log, "sim.shard_run", [&] {
    service->start_clients();
    fabric->run(sim::kSecond + window + 3 * sim::kSecond, workers);
  });
  if (log) log->end(world_span);

  const apps::LoadReport rep = service->report();
  r.completed = rep.completed;
  r.errors = rep.errors;
  r.throughput_rps = rep.throughput_rps();
  r.perf = fabric->merged_perf();
  r.hash = r.perf.determinism_hash;
  r.esp_packets = service->total_esp_packets();
  r.proxy_retries = service->proxy().retries();
  r.steady_events = r.perf.events_fired - events_before;
  r.steady_epochs = coord.epochs() - epochs_before;
  r.barrier_wait_s =
      static_cast<double>(coord.barrier_wait_ns() - wait_before) / 1e9;
  for (std::size_t i = 0; i < service->web_count(); ++i) {
    r.web_cycles += service->web_vm(i)->node()->cpu().total_cycles();
  }
  r.web_cycles -= web_before;
  r.db_cycles = service->db_vm()->node()->cpu().total_cycles() - db_before;

  // Work/span bound at kTracedWorkers: total events over the busiest
  // worker's events under the coordinator's static ownership (shard s ->
  // worker s % w). Per-shard counts are worker-invariant, so any run
  // gives them.
  std::array<std::uint64_t, kTracedWorkers> per_worker{};
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < fabric->world().shard_count(); ++s) {
    const std::uint64_t ev = fabric->world().shard(s).perf().events_fired;
    per_worker[s % kTracedWorkers] += ev;
    total += ev;
  }
  const std::uint64_t span =
      *std::max_element(per_worker.begin(), per_worker.end());
  r.workspan_bound =
      span ? static_cast<double>(total) / static_cast<double>(span) : 0.0;
  return r;
}

// --- direct-call probes (traced passes) -------------------------------------

/// Mean milliseconds of crypto::rsa_generate(drbg, 1024) over a fixed
/// set of DRBG seeds.
double probe_rsa_keygen_ms(SpanLog& log) {
  constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14};
  double total = 0;
  for (const std::uint64_t s : kSeeds) {
    crypto::HmacDrbg drbg(s, "hipbench-rsa");
    total += timed(&log, "crypto.rsa_generate", [&] {
      const crypto::RsaKeyPair kp = crypto::rsa_generate(drbg, 1024);
      if (kp.pub.modulus_bytes() != 128) std::abort();
    });
  }
  return 1e3 * total / static_cast<double>(std::size(kSeeds));
}

struct EspProbe {
  double protect_ns = 0, unprotect_ns = 0;  // per packet
};

/// Per-packet ns of EspSa::protect_batch / unprotect_batch on
/// `payload_bytes`-byte payloads, in batches of one send-queue tick.
EspProbe probe_esp(std::size_t payload_bytes, SpanLog& log) {
  constexpr std::size_t kBatch = 16;
  constexpr int kRounds = 2000;
  const crypto::Bytes enc_key(16, 0x11);
  const crypto::Bytes auth_key(32, 0x22);
  const crypto::Bytes payload(payload_bytes, 0x5a);
  hip::EspSa out(0x5eed, hip::EspSuite::kAes128CtrSha256, enc_key, auth_key);
  hip::EspSa in(0x5eed, hip::EspSuite::kAes128CtrSha256, enc_key, auth_key);
  std::array<hip::EspSa::ProtectJob, kBatch> pjobs;
  std::array<hip::EspSa::UnprotectJob, kBatch> ujobs;
  double protect_s = 0, unprotect_s = 0;
  std::uint64_t accepted = 0;
  const int span = log.begin("hip.esp_probe");
  for (int round = 0; round < kRounds; ++round) {
    for (auto& job : pjobs) {
      job = {6, hip::EspSa::kModeLsi, crypto::Buffer(payload, 26, 28)};
    }
    auto t0 = Clock::now();
    out.protect_batch(std::span(pjobs));
    auto t1 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      ujobs[i].wire = std::move(pjobs[i].buf);
      ujobs[i].result.reset();
    }
    auto t2 = Clock::now();
    in.unprotect_batch(std::span(ujobs));
    auto t3 = Clock::now();
    protect_s += seconds(t0, t1);
    unprotect_s += seconds(t2, t3);
    for (const auto& job : ujobs) accepted += job.result.has_value();
  }
  log.end(span);
  if (accepted != kBatch * kRounds) {
    std::fprintf(stderr, "ESP probe: %" PRIu64 " of %zu packets accepted\n",
                 accepted, kBatch * kRounds);
    std::exit(2);
  }
  const double n = static_cast<double>(kBatch) * kRounds;
  return {1e9 * protect_s / n, 1e9 * unprotect_s / n};
}

// --- output ------------------------------------------------------------------

class Json {
 public:
  void key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void num(double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void u64(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
  }
  void str(const std::string& s) {
    sep();
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }
  void open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-layer metrics of a traced pass, from its worlds; the barrier
/// metrics come from the multi-worker `rerun`. Layers the workload does
/// not run read 0 (e.g. shard.* on Testbed worlds, arm.ssl.* off the
/// grid).
void write_layers(Json& j, const std::vector<WorldResult>& worlds,
                  const std::vector<WorldResult>& rerun, double rsa_ms,
                  const EspProbe& esp, std::size_t esp_payload_bytes) {
  double topology = 0, service = 0, warmup = 0, steady = 0;
  double lb = 0, web = 0, db = 0;
  double barrier = 0, steady_rerun = 0, workspan = 0;
  for (const auto& w : rerun) {
    barrier += w.barrier_wait_s;
    steady_rerun += w.steady_s;
  }
  std::uint64_t completed = 0, errors = 0, queries = 0, retries = 0;
  std::uint64_t bex_ok = 0, bex_bad = 0, esp_pkts = 0, esp_bytes = 0;
  std::uint64_t steady_events = 0, steady_epochs = 0;
  sim::PerfCounters perf;
  perf.determinism_hash = 0;  // merge() XORs the world hashes in
  for (const auto& w : worlds) {
    topology += w.topology_s;
    service += w.service_s;
    warmup += w.warmup_s;
    steady += w.steady_s;
    lb += w.lb_cycles;
    web += w.web_cycles;
    db += w.db_cycles;
    workspan = std::max(workspan, w.workspan_bound);
    completed += w.completed;
    errors += w.errors;
    queries += w.db_queries;
    retries += w.proxy_retries;
    bex_ok += w.bex_completed;
    bex_bad += w.bex_failed;
    esp_pkts += w.esp_packets;
    esp_bytes += w.esp_bytes;
    steady_events += w.steady_events;
    steady_epochs += w.steady_epochs;
    perf.merge(w.perf);
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double done = static_cast<double>(completed);
  const double pkts = static_cast<double>(perf.packets_delivered);

  j.key("layers");
  j.open('{');
  auto put = [&](const char* name, double v) {
    j.key(name);
    j.num(v);
  };
  put("setup.topology_s", topology);
  put("setup.service_s", service);
  put("setup.warmup_s", warmup);
  put("crypto.rsa1024_keygen_ms", rsa_ms);
  put("hip.esp_packets", static_cast<double>(esp_pkts));
  put("hip.esp_bytes_per_packet",
      ratio(static_cast<double>(esp_bytes), static_cast<double>(esp_pkts)));
  put("hip.bex_completed", static_cast<double>(bex_ok));
  put("hip.bex_failed", static_cast<double>(bex_bad));
  put("hip.esp_probe_bytes", static_cast<double>(esp_payload_bytes));
  put("hip.esp_protect_ns", esp.protect_ns);
  put("hip.esp_unprotect_ns", esp.unprotect_ns);
  put("hip.esp_share_est",
      ratio(static_cast<double>(esp_pkts) *
                (esp.protect_ns + esp.unprotect_ns) / 1e9,
            steady));
  for (const Arm& arm : kArms) {
    double arm_steady = 0, arm_setup = 0;
    for (const auto& w : worlds) {
      if (w.arm != arm.name) continue;
      arm_steady += w.steady_s;
      arm_setup += w.setup_s;
    }
    put(("arm." + std::string(arm.name) + ".steady_s").c_str(), arm_steady);
    put(("arm." + std::string(arm.name) + ".setup_s").c_str(), arm_setup);
  }
  put("sim.steady_s", steady);
  put("sim.events_fired", static_cast<double>(perf.events_fired));
  put("sim.events_cancelled", static_cast<double>(perf.events_cancelled));
  put("sim.ns_per_event",
      ratio(1e9 * steady, static_cast<double>(steady_events)));
  put("net.packets_delivered", pkts);
  put("net.bytes_copied_per_packet",
      ratio(static_cast<double>(perf.payload_bytes_copied), pkts));
  put("net.bytes_moved_per_packet",
      ratio(static_cast<double>(perf.payload_bytes_moved), pkts));
  put("net.pool_hit_rate", perf.pool_hit_rate());
  put("shard.epochs", static_cast<double>(perf.shard_epochs));
  put("shard.events_per_epoch", perf.events_per_epoch());
  put("shard.strides", static_cast<double>(perf.shard_strides));
  put("shard.barrier_wait_s", barrier);
  put("shard.steady_2w_s", steady_rerun);
  put("shard.us_per_epoch",
      ratio(1e6 * steady, static_cast<double>(steady_epochs)));
  // Every payload copy of the sharded world, set-up included: a superset
  // of the seam staging copies.
  put("shard.payload_bytes_copied",
      perf.shard_epochs ? static_cast<double>(perf.payload_bytes_copied) : 0);
  put("shard.workspan_bound", workspan);
  put("apps.requests_completed", done);
  put("apps.request_errors", static_cast<double>(errors));
  put("apps.db_queries", static_cast<double>(queries));
  put("apps.proxy_retries", static_cast<double>(retries));
  put("apps.us_per_request", ratio(1e6 * steady, done));
  put("vcycles.lb_per_request", ratio(lb, done));
  put("vcycles.web_per_request", ratio(web, done));
  put("vcycles.db_per_request", ratio(db, done));
  // The low 52 bits are exact in a JSON number; run.py compares the full
  // per-world hashes.
  put("sim.determinism_hash",
      static_cast<double>(perf.determinism_hash &
                          ((std::uint64_t{1} << 52) - 1)));
  j.close('}');
}

void write_spans(const char* path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const SpanLog& log : logs) {
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   first ? "" : ",\n", s.name.c_str(), s.world,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- workloads ---------------------------------------------------------------

struct Pass {
  std::vector<WorldResult> worlds;
  std::vector<SpanLog> logs;  // traced passes: one per world plus probes
  unsigned threads = 1;
};

/// Fig. 2 grid: 8 client counts x 4 arms, one fresh Testbed world each,
/// on kGridThreads sweep threads. Jobs start largest-first so the two
/// threads finish close together; results stay in grid order.
Pass run_grid(sim::Duration window, std::uint64_t seed, bool traced,
              Clock::time_point origin) {
  constexpr std::size_t kJobs = std::size(kFig2Clients) * std::size(kArms);
  Pass pass;
  pass.threads = kGridThreads;
  for (std::size_t i = 0; i < kJobs; ++i) {
    pass.logs.emplace_back(static_cast<int>(i), origin);
  }
  pass.worlds = bench::sweep<WorldResult>(
      kJobs,
      [&](std::size_t k) {
        const std::size_t job = kJobs - 1 - k;
        const Arm& arm = kArms[job % std::size(kArms)];
        const int clients = kFig2Clients[job / std::size(kArms)];
        return traced ? run_testbed_traced(arm, clients, window, seed,
                                           pass.logs[job])
                      : run_testbed(arm, clients, window, seed);
      },
      kGridThreads);
  std::reverse(pass.worlds.begin(), pass.worlds.end());
  return pass;
}

Pass run_c50(sim::Duration window, std::uint64_t seed, bool traced,
             Clock::time_point origin) {
  Pass pass;
  pass.logs.emplace_back(0, origin);
  pass.worlds.push_back(traced ? run_testbed_traced(kArms[1], 50, window,
                                                    seed, pass.logs[0])
                               : run_testbed(kArms[1], 50, window, seed));
  return pass;
}

Pass run_sharded_pass(sim::Duration window, std::uint64_t seed, bool traced,
                      Clock::time_point origin) {
  Pass pass;
  pass.threads = kShardWorkers;
  pass.logs.emplace_back(0, origin);
  pass.worlds.push_back(run_sharded(window, seed, kShardWorkers,
                                    traced ? &pass.logs[0] : nullptr));
  return pass;
}

int usage() {
  std::fprintf(stderr,
               "usage: hipbench_driver --workload "
               "fig2_grid|rubis_hip_c50|sharded_rubis_1w --seed N "
               "[--smoke] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const Windows& win = smoke ? kSmoke : kFull;
  const bool traced = trace_out != nullptr;

  const auto origin = Clock::now();
  Pass pass;
  if (workload == "fig2_grid") {
    pass = run_grid(win.grid, seed, traced, origin);
  } else if (workload == "rubis_hip_c50") {
    pass = run_c50(win.c50, seed, traced, origin);
  } else if (workload == "sharded_rubis_1w") {
    pass = run_sharded_pass(win.sharded, seed, traced, origin);
  } else {
    return usage();
  }
  const double wall = seconds(origin, Clock::now());

  // The multi-worker re-run and the probes come after the timed workload
  // so they never count in wall_s.
  std::vector<WorldResult> rerun;
  double rsa_ms = 0;
  EspProbe esp;
  std::size_t esp_bytes = 1024;
  if (traced) {
    if (workload == "sharded_rubis_1w") {
      pass.logs.emplace_back(1, origin);
      rerun.push_back(
          run_sharded(win.sharded, seed, kTracedWorkers, &pass.logs.back()));
      pass.threads = kTracedWorkers;
    }
    std::uint64_t pkts = 0, bytes = 0;
    for (const auto& w : pass.worlds) {
      pkts += w.esp_packets;
      bytes += w.esp_bytes;
    }
    if (pkts && bytes) esp_bytes = static_cast<std::size_t>(bytes / pkts);
    pass.logs.emplace_back(-1, origin);
    rsa_ms = probe_rsa_keygen_ms(pass.logs.back());
    esp = probe_esp(esp_bytes, pass.logs.back());
    write_spans(trace_out, pass.logs);
  }

  double setup = 0;
  for (const auto& w : pass.worlds) setup += w.setup_s;

  Json j;
  j.open('{');
  j.key("workload");
  j.str(workload);
  j.key("seed");
  j.u64(seed);
  j.key("config");
  j.str(workload + (smoke ? "/smoke" : "/full"));
  j.key("traced");
  j.num(traced ? 1 : 0);
  j.key("wall_s");
  j.num(wall);
  j.key("setup_s");
  j.num(setup);
  j.key("peak_rss_mb");
  j.num(peak_rss_mb());
  j.key("host");
  j.open('{');
  j.key("compiler");
  j.str(__VERSION__);
  j.key("build_type");
  j.str(HIPBENCH_BUILD_TYPE);
  j.key("threads");
  j.u64(pass.threads);
  j.close('}');
  // Re-run worlds share their original's key, so run.py's gate checks
  // that they reproduce its hash and request count.
  std::vector<WorldResult> all = pass.worlds;
  all.insert(all.end(), rerun.begin(), rerun.end());
  j.key("worlds");
  j.open('[');
  for (const auto& w : all) {
    j.open('{');
    j.key("arm");
    j.str(w.arm);
    j.key("clients");
    j.u64(static_cast<std::uint64_t>(w.clients));
    j.key("workers");
    j.u64(w.workers);
    j.key("hash");
    j.str(hex(w.hash));
    j.key("completed");
    j.u64(w.completed);
    j.key("errors");
    j.u64(w.errors);
    j.key("bex_failed");
    j.u64(w.bex_failed);
    j.key("throughput_rps");
    j.num(w.throughput_rps);
    j.key("setup_s");
    j.num(w.setup_s);
    j.key("steady_s");
    j.num(w.steady_s);
    j.close('}');
  }
  j.close(']');
  if (traced) {
    write_layers(j, pass.worlds, rerun, rsa_ms, esp, esp_bytes);
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
