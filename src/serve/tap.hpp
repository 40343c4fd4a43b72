// PredictionTap: the serve path's one push-side prediction observer — the
// hook the checkpoint advisor (src/advisor) and the streaming AlarmFeed
// below subscribe through. A tap is handed the *shard index* of the
// emitting engine, which makes a lock-free per-shard SPSC hand-off
// possible on the consumer side: for any given shard index, calls are
// serialized — they run on that shard's worker thread, on its
// watchdog-restarted successor (the join publishes the predecessor's
// writes), or on the finishing thread after every worker has joined — so
// exactly one producer per shard exists at any instant.
//
// Contract for implementations:
//   * publish() MUST be wait-free: never block, never take a lock the
//     predict hot path could contend on, never allocate unboundedly. Drop
//     and count if a bounded buffer is full.
//   * publish() is called once per prediction per run (the drain cursor in
//     ShardedEngine::drain_shard guarantees exactly-once streaming even
//     across injected worker deaths and restarts).
//   * The tap must outlive the engine/service it is registered with.
//
// The sharded-ingest refactor (lock-free ShardRouter + per-shard
// SpscRings, no dispatcher) did not change this contract: predictions are
// still emitted from drain_shard under the same one-producer-per-shard
// serialization, whatever thread is draining.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "elsa/online.hpp"
#include "serve/spsc_ring.hpp"

namespace elsa::serve {

class PredictionTap {
 public:
  virtual ~PredictionTap() = default;

  /// One freshly issued prediction from shard `shard`. Wait-free (see
  /// file comment); per-shard calls are serialized, cross-shard calls are
  /// concurrent.
  virtual void publish(std::size_t shard, const core::Prediction& p) = 0;
};

/// The streaming alarm view for one polling consumer (the `elsa serve`
/// console, examples/serve_demo): every shard offers into one shared ring,
/// which tolerates concurrent producers (see serve/spsc_ring.hpp). A full
/// ring drops the alarm and counts it instead of stalling a shard worker;
/// the merged list after finish() stays the complete record.
class AlarmFeed final : public PredictionTap {
 public:
  static constexpr std::size_t kCapacity = 4096;

  // elsa-realtime: one wait-free offer per issued alarm.
  void publish(std::size_t /*shard*/, const core::Prediction& p) override {
    ring_.offer(p);
  }

  /// Append the alarms queued since the last poll to `out`; returns how
  /// many. One consumer thread at a time.
  std::size_t poll(std::vector<core::Prediction>& out) {
    return ring_.pop_n(out, kCapacity);
  }

  /// Alarms lost to a full ring (0 while the consumer keeps up).
  std::uint64_t dropped() const { return ring_.dropped(); }

 private:
  SpscRing<core::Prediction> ring_{kCapacity};
};

/// One classified record as the shard engine consumed it: everything the
/// incremental miner (src/mining) needs, nothing else.
struct ClassifiedEvent {
  std::int64_t time_ms = 0;
  std::int32_t node_id = -1;
  std::uint32_t tmpl = 0;
  std::uint8_t severity = 0;  ///< simlog::Severity ordinal
};

/// The ingest-side sibling of PredictionTap: observes every classified
/// event exactly once, adjacent to the engine feed, under the same
/// one-producer-per-shard serialization (worker thread, its
/// watchdog-restarted successor, or the finishing thread after joins — a
/// fault-killed worker's unprocessed carryover is re-published by whoever
/// processes it, never twice).
///
/// Unlike PredictionTap, publish() MAY block (bounded backpressure into a
/// per-shard SPSC ring): the miner's determinism proof needs a lossless
/// stream, so the contract trades wait-freedom for conservation. An
/// implementation must guarantee eventual progress (a draining consumer or
/// a closed ring), never a lock shared across shards.
class EventTap {
 public:
  virtual ~EventTap() = default;

  /// One classified event from shard `shard`, in shard-stream order.
  virtual void publish(std::size_t shard, const ClassifiedEvent& e) = 0;
};

}  // namespace elsa::serve
