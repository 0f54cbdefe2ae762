// Simulator-core micro-benchmark: event-loop schedule/cancel/fire
// throughput and the packet datapath (raw TCP echo and the Fig. 2 RUBiS
// path). Emits BENCH_sim.json so the perf trajectory of the simulator
// substrate itself — not just the crypto — is tracked run over run.
//
// The binary also counts real heap allocations (global operator new
// override, bench binary only) so "allocations per delivered packet" is a
// measured number, not an estimate.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/testbed.hpp"
#include "net/tcp.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: every operator new in this binary bumps a counter.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

std::uint64_t allocs_now() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// The replaced operator new above allocates with std::malloc, so free()
// is the matching deallocator; GCC can't see through the replacement
// and reports a mismatched pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hipcloud::bench {
namespace {

// hipcheck:allow(wall-clock): micro-bench measures real elapsed time; never feeds sim state
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Legacy event loop: the seed implementation (std::priority_queue of
// std::function entries + live/cancelled hash sets), kept here verbatim as
// the live "before" baseline so the speedup claim is re-measurable in
// every future run of this binary.

class LegacyEventLoop {
 public:
  using Callback = std::function<void()>;

  std::uint64_t schedule(std::int64_t delay, Callback cb) {
    if (delay < 0) delay = 0;
    const std::uint64_t id = next_id_++;
    queue_.push(Entry{now_ + delay, next_seq_++, id, std::move(cb)});
    live_ids_.insert(id);
    return id;
  }

  bool cancel(std::uint64_t id) {
    if (id == 0 || live_ids_.erase(id) == 0) return false;
    cancelled_.insert(id);
    return true;
  }

  std::size_t run() {
    std::size_t n = 0;
    while (!queue_.empty()) {
      const Entry& top = queue_.top();
      if (const auto it = cancelled_.find(top.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        queue_.pop();
        continue;
      }
      Entry e = std::move(const_cast<Entry&>(top));
      queue_.pop();
      live_ids_.erase(e.id);
      now_ = e.when;
      e.cb();
      ++n;
    }
    cancelled_.clear();
    return n;
  }

 private:
  struct Entry {
    std::int64_t when;
    std::uint64_t seq;
    std::uint64_t id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::int64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> live_ids_;
  std::unordered_set<std::uint64_t> cancelled_;
};

// ---------------------------------------------------------------------------
// Event-loop workloads. Both run the same pattern on the legacy loop and
// on sim::EventLoop: waves of scheduled events where each firing schedules
// a successor (timer churn), plus an RTO-style schedule-then-cancel storm.

struct LoopScore {
  double schedule_fire_mops;  // schedule+fire pairs per second, millions
  double cancel_mops;         // schedule+cancel pairs per second, millions
};

// Captured state sized like the real hot callbacks: the link-delivery
// lambda captures a Packet by value (~112 bytes), timer lambdas capture a
// shared_ptr plus sequencing state. Anything past ~16 bytes already spills
// std::function to the heap, so an honest schedule/fire benchmark must
// carry a realistic capture, not an 8-byte counter reference.
struct CallbackState {
  std::uint64_t* fired;
  std::uint64_t pad[7];  // 64 bytes total, well under a Packet capture
};

template <typename Loop, typename Handle>
LoopScore run_loop_bench(std::size_t events, std::size_t churn) {
  LoopScore score{};
  {
    Loop loop;
    std::uint64_t fired = 0;
    const CallbackState st{&fired, {}};
    const auto t0 = Clock::now();
    constexpr std::size_t kWave = 1024;
    std::size_t scheduled = 0;
    while (scheduled < events) {
      const std::size_t n = std::min(kWave, events - scheduled);
      for (std::size_t i = 0; i < n; ++i) {
        loop.schedule(static_cast<std::int64_t>(i % 7),
                      [st] { ++*st.fired; });
      }
      scheduled += n;
      loop.run();
    }
    score.schedule_fire_mops =
        static_cast<double>(fired) / seconds_since(t0) / 1e6;
  }
  {
    Loop loop;
    std::uint64_t fired = 0;
    const CallbackState st{&fired, {}};
    const auto t0 = Clock::now();
    constexpr std::size_t kWave = 1024;
    std::size_t done = 0;
    std::vector<Handle> handles;
    handles.reserve(kWave);
    while (done < churn) {
      const std::size_t n = std::min(kWave, churn - done);
      handles.clear();
      for (std::size_t i = 0; i < n; ++i) {
        handles.push_back(loop.schedule(100, [st] { ++*st.fired; }));
      }
      // Cancel every scheduled timer, as a TCP ack storm re-arming the
      // RTO would.
      for (auto& h : handles) loop.cancel(h);
      loop.run();
      done += n;
    }
    score.cancel_mops = static_cast<double>(done) / seconds_since(t0) / 1e6;
  }
  return score;
}

// ---------------------------------------------------------------------------
// The engine mix of the saturated Fig. 2 HIP world: most pushes are
// sub-millisecond link hops, and two hops in three carry an ACK that
// re-arms its connection's retransmit timer (cancel, then schedule
// ~200 ms out). A standing population of multi-second think/keepalive
// timers fires and re-arms on its own. Shape: 16 hop chains and 6000 long
// timers, so ~60% of pushes are sub-millisecond, and every cancelled
// timer would linger ~200 ms as a tombstone in a lazily-cancelling heap.

struct MixScore {
  std::uint64_t fired;
  std::uint64_t cancelled;
  double fire_mops;  // fired events per wall second, millions
};

class MixWorld {
 public:
  static constexpr int kFlows = 16;
  static constexpr int kTimers = 6000;

  explicit MixWorld(std::size_t hops) : hops_left_(hops), rto_(kFlows) {
    for (int f = 0; f < kFlows; ++f) hop(f);
    for (int t = 0; t < kTimers; ++t) think();
  }

  sim::EventLoop& loop() { return loop_; }

 private:
  std::int64_t draw(std::int64_t n) {
    return static_cast<std::int64_t>(rng_.next() %
                                     static_cast<std::uint64_t>(n));
  }

  void hop(int f) {
    if (hops_left_ == 0) return;
    --hops_left_;
    loop_.schedule(sim::from_micros(1) + draw(sim::from_micros(300)),
                   [this, f, st = state_] { hop(f); });
    if (draw(3) != 0) {
      loop_.cancel(rto_[f]);
      rto_[f] = loop_.schedule(
          200 * sim::kMillisecond + draw(50 * sim::kMillisecond),
          [this, f, st = state_] { rto_[f] = {}; });
    }
  }

  void think() {
    if (hops_left_ == 0) return;
    loop_.schedule(sim::kSecond + draw(14 * sim::kSecond),
                   [this, st = state_] { think(); });
  }

  sim::EventLoop loop_;
  sim::SplitMix64 rng_{1};
  std::size_t hops_left_;
  std::vector<sim::EventHandle> rto_;
  CallbackState state_{nullptr, {}};  // a realistic 64-byte capture
};

MixScore run_mixed_bench(std::size_t hops) {
  MixWorld world(hops);
  const auto t0 = Clock::now();
  world.loop().run();
  const double wall = seconds_since(t0);
  const auto& perf = world.loop().perf();
  return MixScore{perf.events_fired, perf.events_cancelled,
                  static_cast<double>(perf.events_fired) / wall / 1e6};
}

// ---------------------------------------------------------------------------
// Packet round-trip: two hosts on a fast LAN link, raw TCP, closed-loop
// 1 KiB request -> 1 KiB response. Allocations and wall time are measured
// over the steady-state run only (world setup excluded).

struct EchoScore {
  std::uint64_t round_trips;
  std::uint64_t packets;     // link-delivered packets, both directions
  double allocs_per_packet;  // heap allocations per delivered packet
  double sim_packets_per_wall_second;
  sim::PerfCounters perf;
};

EchoScore run_tcp_echo(std::uint64_t round_trips) {
  net::Network net(42);
  net::Node* a = net.add_node("a");
  net::Node* b = net.add_node("b");
  net::LinkConfig lan;
  lan.latency = sim::from_micros(100);
  const auto att = net.connect(a, b, lan);
  a->add_address(att.iface_a, net::Ipv4Addr(10, 0, 0, 1));
  b->add_address(att.iface_b, net::Ipv4Addr(10, 0, 0, 2));
  a->set_default_route(att.iface_a);
  b->set_default_route(att.iface_b);

  net::TcpStack tcp_a(a);
  net::TcpStack tcp_b(b);

  const crypto::Bytes blob(1024, 0x42);
  tcp_b.listen(7, [&](std::shared_ptr<net::TcpConnection> conn) {
    auto c = conn.get();
    conn->on_data([c, &blob](crypto::Bytes data) {
      // Echo a fixed 1 KiB response once a full 1 KiB request arrived.
      static thread_local std::uint64_t got = 0;
      got += data.size();
      while (got >= 1024) {
        got -= 1024;
        c->send(blob);
      }
    });
  });

  std::uint64_t remaining = round_trips;
  std::uint64_t received = 0;
  auto conn = tcp_a.connect(net::Endpoint{net::Ipv4Addr(10, 0, 0, 2), 7});
  auto c = conn.get();
  conn->on_connect([c, &blob] { c->send(blob); });
  conn->on_data([&, c](crypto::Bytes data) {
    received += data.size();
    while (received >= 1024) {
      received -= 1024;
      if (--remaining == 0) {
        c->close();
        return;
      }
      c->send(blob);
    }
  });

  const auto t0 = Clock::now();
  const std::uint64_t allocs0 = allocs_now();
  net.loop().run();
  const std::uint64_t allocs1 = allocs_now();
  const double wall = seconds_since(t0);

  EchoScore score{};
  score.round_trips = round_trips;
  score.packets = att.link->delivered_packets();
  score.allocs_per_packet = score.packets
                                ? static_cast<double>(allocs1 - allocs0) /
                                      static_cast<double>(score.packets)
                                : 0.0;
  score.sim_packets_per_wall_second =
      static_cast<double>(score.packets) / wall;
  score.perf = net.loop().perf();
  return score;
}

// ---------------------------------------------------------------------------
// The Fig. 2 RUBiS path: the real testbed (EC2 profile, HIP mode, ESP
// datapath) under a short closed-loop run. This is the exact spine the
// paper reproduction stresses.

struct RubisScore {
  std::uint64_t completed;
  double allocs_per_request;
  double wall_seconds;
  sim::PerfCounters perf;
};

RubisScore run_rubis_hip(int clients, double sim_seconds) {
  core::TestbedConfig cfg;
  cfg.provider = cloud::ProviderProfile::ec2();
  cfg.deployment.mode = core::SecurityMode::kHip;
  core::Testbed bed(cfg);

  const auto t0 = Clock::now();
  const std::uint64_t allocs0 = allocs_now();
  const auto report = bed.run_closed_loop(
      clients, static_cast<sim::Duration>(sim_seconds * sim::kSecond));
  const std::uint64_t allocs1 = allocs_now();

  RubisScore score{};
  score.completed = report.completed;
  score.allocs_per_request =
      report.completed ? static_cast<double>(allocs1 - allocs0) /
                             static_cast<double>(report.completed)
                       : 0.0;
  score.wall_seconds = seconds_since(t0);
  score.perf = bed.network().perf();
  return score;
}

// ---------------------------------------------------------------------------
// BENCH_sim.json. The "seed" constants are the numbers this same binary
// measured on the pre-overhaul tree (std::function event loop, Bytes
// payload pipeline), recorded so the before/after story survives in the
// artifact without needing to rebuild the old code.

constexpr double kSeedTcpAllocsPerPacket = 7.50;
constexpr double kSeedRubisAllocsPerRequest = 1250.6;
// The timer mix on the single-heap engine with lazy (tombstone) cancel,
// the engine before the near/far split: median of 5 full runs of this
// binary, alternated with the two-heap build, on a 4-CPU host
// (RelWithDebInfo, g++ 12).
constexpr double kSingleHeapMixFireMops = 2.91;

void write_sim_json(const LoopScore& legacy, const LoopScore& current,
                    const MixScore& mix, std::size_t mix_hops,
                    const EchoScore& echo, const RubisScore& rubis,
                    const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"title\": \"Simulator core: event engine and packet "
               "datapath\",\n");
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"event_loop\": {\n");
  std::fprintf(f, "    \"legacy_schedule_fire_mops\": %.2f,\n",
               legacy.schedule_fire_mops);
  std::fprintf(f, "    \"legacy_schedule_cancel_mops\": %.2f,\n",
               legacy.cancel_mops);
  std::fprintf(f, "    \"schedule_fire_mops\": %.2f,\n",
               current.schedule_fire_mops);
  std::fprintf(f, "    \"schedule_cancel_mops\": %.2f,\n", current.cancel_mops);
  std::fprintf(f, "    \"speedup_schedule_fire\": %.2f,\n",
               current.schedule_fire_mops / legacy.schedule_fire_mops);
  std::fprintf(f, "    \"speedup_schedule_cancel\": %.2f\n",
               current.cancel_mops / legacy.cancel_mops);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"timer_mix\": {\n");
  std::fprintf(f, "    \"hops\": %zu,\n", mix_hops);
  std::fprintf(f, "    \"events_fired\": %llu,\n",
               static_cast<unsigned long long>(mix.fired));
  std::fprintf(f, "    \"events_cancelled\": %llu,\n",
               static_cast<unsigned long long>(mix.cancelled));
  std::fprintf(f,
               "    \"fired_mops\": {\"before\": %.2f, \"after\": %.2f}\n",
               kSingleHeapMixFireMops, mix.fire_mops);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"tcp_echo\": {\n");
  std::fprintf(f, "    \"round_trips\": %llu,\n",
               static_cast<unsigned long long>(echo.round_trips));
  std::fprintf(f, "    \"packets_delivered\": %llu,\n",
               static_cast<unsigned long long>(echo.packets));
  std::fprintf(f,
               "    \"heap_allocs_per_packet\": {\"before\": %.2f, "
               "\"after\": %.2f},\n",
               kSeedTcpAllocsPerPacket, echo.allocs_per_packet);
  std::fprintf(f, "    \"packets_per_wall_second\": %.0f,\n",
               echo.sim_packets_per_wall_second);
  std::fprintf(f, "    \"sim_perf\": {\n");
  echo.perf.write_json_fields(f, "      ");
  std::fprintf(f, "\n    }\n  },\n");
  std::fprintf(f, "  \"rubis_hip\": {\n");
  std::fprintf(f, "    \"completed_requests\": %llu,\n",
               static_cast<unsigned long long>(rubis.completed));
  std::fprintf(f,
               "    \"heap_allocs_per_request\": {\"before\": %.1f, "
               "\"after\": %.1f},\n",
               kSeedRubisAllocsPerRequest, rubis.allocs_per_request);
  std::fprintf(f, "    \"wall_seconds\": %.2f,\n", rubis.wall_seconds);
  std::fprintf(f, "    \"sim_perf\": {\n");
  rubis.perf.write_json_fields(f, "      ");
  std::fprintf(f, "\n    }\n  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nWrote %s\n", path);
}

}  // namespace
}  // namespace hipcloud::bench

int main(int argc, char** argv) {
  using namespace hipcloud::bench;
  // Smaller iteration counts for CTest smoke runs: micro_sim --quick
  const bool quick = argc > 1 && std::string_view(argv[1]) == "--quick";
  const std::size_t events = quick ? 200'000 : 2'000'000;
  const std::size_t churn = quick ? 200'000 : 2'000'000;
  const std::size_t mix_hops = quick ? 200'000 : 2'000'000;
  const std::uint64_t echos = quick ? 2'000 : 20'000;
  const double rubis_secs = quick ? 2.0 : 8.0;

  std::printf("Simulator-core micro-bench\n==========================\n\n");

  const auto legacy =
      run_loop_bench<LegacyEventLoop, std::uint64_t>(events, churn);
  std::printf("event loop (legacy: priority_queue + hash sets)\n"
              "  schedule+fire: %8.2f M ops/s\n"
              "  schedule+cancel: %6.2f M ops/s\n",
              legacy.schedule_fire_mops, legacy.cancel_mops);

  const auto current =
      run_loop_bench<hipcloud::sim::EventLoop, hipcloud::sim::EventHandle>(
          events, churn);
  std::printf("event loop (sim::EventLoop)\n"
              "  schedule+fire: %8.2f M ops/s  (%.2fx)\n"
              "  schedule+cancel: %6.2f M ops/s  (%.2fx)\n\n",
              current.schedule_fire_mops,
              current.schedule_fire_mops / legacy.schedule_fire_mops,
              current.cancel_mops, current.cancel_mops / legacy.cancel_mops);

  const auto mix = run_mixed_bench(mix_hops);
  std::printf("event loop, Fig. 2 timer mix (%zu hops)\n"
              "  fired: %llu  cancelled: %llu\n"
              "  fired events: %6.2f M/s\n\n",
              mix_hops, static_cast<unsigned long long>(mix.fired),
              static_cast<unsigned long long>(mix.cancelled), mix.fire_mops);

  const auto echo = run_tcp_echo(echos);
  std::printf("tcp echo (1 KiB, %llu round trips)\n"
              "  packets delivered: %llu\n"
              "  heap allocs/packet: %.2f\n"
              "  packets/wall-second: %.0f\n\n",
              static_cast<unsigned long long>(echo.round_trips),
              static_cast<unsigned long long>(echo.packets),
              echo.allocs_per_packet, echo.sim_packets_per_wall_second);

  const auto rubis = run_rubis_hip(4, rubis_secs);
  std::printf("rubis-hip closed loop (4 clients, %.0f sim-s)\n"
              "  completed requests: %llu\n"
              "  heap allocs/request: %.1f\n"
              "  pool misses/packet: %.2f (hit rate %.0f%%)\n"
              "  wall seconds: %.2f\n",
              rubis_secs, static_cast<unsigned long long>(rubis.completed),
              rubis.allocs_per_request, rubis.perf.pool_misses_per_packet(),
              100.0 * rubis.perf.pool_hit_rate(), rubis.wall_seconds);

  // The quick CTest smoke run keeps the JSON artifact from the full run.
  if (!quick) write_sim_json(legacy, current, mix, mix_hops, echo, rubis,
                             "BENCH_sim.json");
  return 0;
}
