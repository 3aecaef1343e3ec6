// Component-level micro-benchmarks (google-benchmark): wall-clock costs of
// the building blocks the simulator executes billions of times — event queue
// operations, wire codec, scatter codec, fiber switches, RNG, counters, the
// KV record checksum.
// These guard the *host* performance of the simulation itself.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "kv/ring.hpp"
#include "net/frame.hpp"
#include "net/frame_pool.hpp"
#include "proto/wire.hpp"
#include "sim/fiber.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"

namespace {

using namespace multiedge;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1024; ++i) {
      s.in(sim::ns(i * 7 % 97), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.now());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Encode straight into a pooled frame's inline payload (zero allocation).
void BM_WireHeaderEncodeInto(benchmark::State& state) {
  proto::WireHeader h;
  h.seq = 123456;
  h.ack = 123400;
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  auto frame = net::frame_pool().acquire();
  for (auto _ : state) {
    proto::encode_frame_payload_into(frame->payload, h, {}, data);
    benchmark::DoNotOptimize(frame->payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          (proto::WireHeader::kBytes + data.size()));
}
BENCHMARK(BM_WireHeaderEncodeInto)->Arg(0)->Arg(256)->Arg(1428);

void BM_WireHeaderDecode(benchmark::State& state) {
  proto::WireHeader h;
  std::vector<std::byte> data(1428);
  auto frame = net::frame_pool().acquire();
  proto::encode_frame_payload_into(frame->payload, h, {}, data);
  proto::DecodedFrame df;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_frame_payload(frame->payload, df));
  }
}
BENCHMARK(BM_WireHeaderDecode);

void BM_ScatterCodec(benchmark::State& state) {
  const int nsegs = static_cast<int>(state.range(0));
  std::vector<proto::ScatterChunk> chunks;
  std::vector<std::byte> seg_data(64);
  std::vector<std::span<const std::byte>> data;
  for (int i = 0; i < nsegs; ++i) {
    chunks.push_back({static_cast<std::uint32_t>(i * 128), 64});
    data.emplace_back(seg_data);
  }
  std::vector<std::pair<std::uint32_t, std::span<const std::byte>>> out;
  for (auto _ : state) {
    auto enc = proto::encode_scatter_payload(chunks, data);
    benchmark::DoNotOptimize(proto::decode_scatter_payload(enc, out));
  }
  state.SetItemsProcessed(state.iterations() * nsegs);
}
BENCHMARK(BM_ScatterCodec)->Arg(4)->Arg(16)->Arg(64);

void BM_FiberSwitch(benchmark::State& state) {
  bool stop = false;
  sim::Fiber f([&stop] {
    while (!stop) sim::Fiber::yield();
  });
  for (auto _ : state) {
    f.resume();  // one switch in + one switch out
  }
  stop = true;
  f.resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_Rng(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_Rng);

void BM_CounterAdd(benchmark::State& state) {
  static const stats::CounterId kCtr =
      stats::CounterRegistry::intern("data_frames_rcvd");
  stats::Counters c;
  for (auto _ : state) {
    c.add(kCtr);
  }
  benchmark::DoNotOptimize(c.get(kCtr));
}
BENCHMARK(BM_CounterAdd);

void BM_FramePayloadAlloc(benchmark::State& state) {
  for (auto _ : state) {
    auto f = std::make_shared<net::Frame>();
    f->payload.resize(1500);
    benchmark::DoNotOptimize(f->payload.data());
  }
}
BENCHMARK(BM_FramePayloadAlloc);

// The pooled equivalent of BM_FramePayloadAlloc: acquire/release recycles
// one combined control-block+Frame allocation instead of hitting the heap.
void BM_FramePoolAcquire(benchmark::State& state) {
  net::FramePool pool;
  for (auto _ : state) {
    auto f = pool.acquire();
    f->payload.resize_for_overwrite(1500);
    benchmark::DoNotOptimize(f->payload.data());
  }
  // Calibration passes run with a single iteration, which can only be a
  // fresh allocation; only real runs must show recycling.
  if (state.iterations() > 1 && pool.reuses() == 0) {
    state.SkipWithError("pool never recycled");
  }
}
BENCHMARK(BM_FramePoolAcquire);

// One record as the kv-write workload stores it: a 16-byte key and a 4 KiB
// value, hashed on every PUT apply and every one-sided GET validation.
void BM_RecordChecksum(benchmark::State& state) {
  std::vector<std::byte> rec(16 + 4096);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    rec[i] = static_cast<std::byte>(i * 131);
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kv::record_checksum(++seq, 16, 4096, rec.data(), rec.data() + 16));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(rec.size()));
}
BENCHMARK(BM_RecordChecksum);

}  // namespace

BENCHMARK_MAIN();
