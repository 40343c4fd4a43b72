// Online outlier detection (paper §III.B.1, Fig 3): a causal moving-window
// median filter with replacement. Each observed bucket count y_k is compared
// against the median of the recent window; if the distance exceeds the
// signal's predefined threshold, y_k is declared an outlier and a
// replacement value consistent with the window is recorded instead — this
// keeps a long fault burst from dragging the median up and masking itself
// (the paper's "replacement strategy").
//
// Dropout detection for periodic signals extends the same filter: a rolling
// window sum falling far below the expected count flags the silence that
// precedes node-card/crash failures.
#pragma once

#include <cstdint>
#include <vector>

#include "elsa/profile.hpp"

namespace elsa::core {

enum class OutlierKind : std::uint8_t {
  None,
  Spike,       ///< count far above the running median
  Occurrence,  ///< any activity on a silent signal
  Dropout,     ///< periodic signal went quiet
};

const char* to_string(OutlierKind k);

/// Exact sliding median over small non-negative integers in O(1) amortised
/// per push, via a frequency table and an incrementally maintained median
/// pointer. Bucket counts are clamped to `kMaxValue`. This is the hot path
/// of the online phase (every signal, every 10 s bucket).
///
/// The window is kept as runs of equal values, one 32-bit word per run
/// (a 12-bit value and a 20-bit count; longer runs are split), in a ring
/// that never grows past `window` words, so it never takes more bytes than
/// one word per sample. The frequency table grows only to the largest value
/// seen. A silent signal's day-long window is one run and a one-word table.
class CountingSlidingMedian {
 public:
  static constexpr std::uint32_t kMaxValue = 4095;

  explicit CountingSlidingMedian(std::size_t window);

  void push(double x);
  /// Same state as `k` calls of push(0.0), in O(runs evicted): a `k` of at
  /// least the window replaces the whole window with zeros.
  void push_zeros(std::size_t k);
  double median() const;
  std::size_t size() const { return size_; }
  bool full() const { return size_ == window_; }
  /// Runs currently held (the window's memory, in 32-bit words).
  std::size_t runs() const { return nruns_; }

 private:
  static constexpr unsigned kCountBits = 20;
  static constexpr std::uint32_t kMaxRun = (1u << kCountBits) - 1;

  std::uint32_t clamp(double x) const;
  /// Append `n` samples of value `v` at the newest end.
  void append(std::uint32_t v, std::size_t n);
  /// Drop the `n` oldest samples.
  void evict(std::size_t n);
  /// Move the median pointer to the smallest m with
  /// below(m) <= (size-1)/2 < below(m) + freq[m].
  void recentre();

  std::size_t window_;
  std::size_t size_ = 0;  ///< samples in the window
  /// Ring of runs, oldest at head_, next free slot at tail_; capacity
  /// grows up to window_ words.
  std::vector<std::uint32_t> runs_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t nruns_ = 0;
  std::vector<std::uint32_t> freq_;
  std::uint32_t median_val_ = 0;
  std::size_t below_ = 0;  ///< count of samples strictly below median_val_
};

/// Behavioural switches distinguishing this paper's detector from the
/// earlier pure-signal ELSA [4] it improves upon. The defaults are the
/// paper's new detector; the pure-signal baseline runs with both off.
struct DetectorOptions {
  /// Record the window median in place of an outlier sample so a sustained
  /// burst cannot inflate its own baseline (§III.B.1's replacement
  /// strategy).
  bool replacement = true;
  /// Report one event per anomalous episode instead of one per bucket.
  bool debounce = true;
};

/// Per-signal online detector; feed one bucket count per sample period.
class OnlineDetector {
 public:
  OnlineDetector(const SignalProfile& profile, std::size_t median_window,
                 DetectorOptions options = {});

  struct Result {
    OutlierKind kind = OutlierKind::None;
    double replacement = 0.0;  ///< value recorded in place of an outlier
    /// True when this sample *starts* an anomalous episode. Consecutive
    /// anomalous buckets report the kind but not `onset`; chain matching
    /// keys off onsets so a 40 s burst is one event, not four.
    bool onset = false;
  };

  /// Feed one bucket's count. A zero that cannot be a spike (threshold
  /// >= 0) does not read the median: its push is owed and paid, in one
  /// run, before the median is next read. Without dropout tracking such a
  /// zero costs a compare and an increment, inline.
  Result feed(double y) {
    if (y == 0.0 && zero_is_quiet_) {
      in_spike_ = false;
      ++owed_zeros_;
      return {};
    }
    return feed_checked(y);
  }

  const SignalProfile& profile() const { return profile_; }

 private:
  /// feed() for a sample that may be an outlier.
  Result feed_checked(double y);

  SignalProfile profile_;
  DetectorOptions options_;
  CountingSlidingMedian median_;
  // Rolling sum for dropout detection over a ring that fills to
  // dropout_window samples; drop_head_ is the oldest once full.
  std::vector<float> drop_window_;
  std::size_t drop_head_ = 0;
  double drop_sum_ = 0.0;
  /// Zeros fed but not yet pushed into `median_` (see feed()).
  std::size_t owed_zeros_ = 0;
  bool in_spike_ = false;
  bool in_dropout_ = false;
  /// No dropout tracking and a threshold >= 0: a zero is never an outlier.
  bool zero_is_quiet_ = false;
};

/// One anomalous episode onset, with the nodes observed in the triggering
/// bucket (empty for dropouts — nothing was logged).
struct OutlierEvent {
  std::int32_t sample = 0;
  OutlierKind kind = OutlierKind::None;
  std::vector<std::int32_t> nodes;
};

}  // namespace elsa::core
