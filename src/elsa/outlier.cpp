#include "elsa/outlier.hpp"

#include <algorithm>
#include <cmath>

namespace elsa::core {

const char* to_string(OutlierKind k) {
  switch (k) {
    case OutlierKind::None: return "none";
    case OutlierKind::Spike: return "spike";
    case OutlierKind::Occurrence: return "occurrence";
    case OutlierKind::Dropout: return "dropout";
  }
  return "?";
}

CountingSlidingMedian::CountingSlidingMedian(std::size_t window)
    : window_(std::max<std::size_t>(1, window)) {}

std::uint32_t CountingSlidingMedian::clamp(double x) const {
  if (!(x > 0.0)) return 0;
  if (x >= static_cast<double>(kMaxValue)) return kMaxValue;
  return static_cast<std::uint32_t>(x);
}

void CountingSlidingMedian::append(std::uint32_t v, std::size_t n) {
  if (v >= freq_.size())
    // elsa-lint: allow(realtime-allocates): the table grows to the largest
    // value seen, at most kMaxValue + 1 words over the detector's life.
    freq_.resize(v + 1, 0);
  freq_[v] += static_cast<std::uint32_t>(n);
  if (v < median_val_) below_ += n;
  size_ += n;
  if (nruns_ > 0) {
    std::uint32_t& run = runs_[(tail_ == 0 ? runs_.size() : tail_) - 1];
    const std::uint32_t count = run & kMaxRun;
    if (run >> kCountBits == v && count < kMaxRun) {
      const auto add = static_cast<std::uint32_t>(
          std::min<std::size_t>(n, kMaxRun - count));
      run += add;
      n -= add;
    }
  }
  while (n > 0) {
    if (nruns_ == runs_.size()) {
      // The ring is full: straighten it, oldest run first, and grow it.
      std::rotate(runs_.begin(),
                  runs_.begin() + static_cast<std::ptrdiff_t>(head_),
                  runs_.end());
      head_ = 0;
      tail_ = nruns_;
      // elsa-lint: allow(realtime-allocates): doubles up to window_ words
      // (runs never outnumber the samples), then never again.
      runs_.resize(std::min(window_, std::max<std::size_t>(4, 2 * nruns_)));
    }
    const auto take =
        static_cast<std::uint32_t>(std::min<std::size_t>(n, kMaxRun));
    runs_[tail_] = (v << kCountBits) | take;
    if (++tail_ == runs_.size()) tail_ = 0;
    ++nruns_;
    n -= take;
  }
}

void CountingSlidingMedian::evict(std::size_t n) {
  size_ -= n;
  while (n > 0) {
    std::uint32_t& run = runs_[head_];
    const std::uint32_t v = run >> kCountBits;
    const auto take = static_cast<std::uint32_t>(
        std::min<std::size_t>(n, run & kMaxRun));
    freq_[v] -= take;
    if (v < median_val_) below_ -= take;
    n -= take;
    if ((run & kMaxRun) == take) {
      if (++head_ == runs_.size()) head_ = 0;
      --nruns_;
    } else {
      run -= take;
    }
  }
}

void CountingSlidingMedian::recentre() {
  const std::size_t target = (size_ - 1) / 2;
  while (median_val_ > 0 && below_ > target) {
    --median_val_;
    below_ -= freq_[median_val_];
  }
  while (below_ + freq_[median_val_] <= target) {
    below_ += freq_[median_val_];
    ++median_val_;
  }
}

// Evicting before appending keeps at most window_ samples (hence runs) at
// any moment; the order does not change the final multiset, and the lower
// median is a function of the multiset alone.
void CountingSlidingMedian::push(double x) {
  if (size_ == window_) evict(1);
  append(clamp(x), 1);
  recentre();
}

void CountingSlidingMedian::push_zeros(std::size_t k) {
  if (k == 0) return;
  k = std::min(k, window_);
  if (size_ + k > window_) evict(size_ + k - window_);
  append(0, k);
  if (freq_[0] > (size_ - 1) / 2) {
    // Zeros fill the lower half: the median is 0 with nothing below it.
    median_val_ = 0;
    below_ = 0;
  } else {
    recentre();
  }
}

double CountingSlidingMedian::median() const {
  return size_ == 0 ? 0.0 : static_cast<double>(median_val_);
}

OnlineDetector::OnlineDetector(const SignalProfile& profile,
                               std::size_t median_window,
                               DetectorOptions options)
    : profile_(profile),
      options_(options),
      median_(median_window),
      zero_is_quiet_(profile.dropout_window == 0 &&
                     profile.spike_delta >= 0.0) {
  // Seed the median with the training level so the first online buckets are
  // judged against a sane baseline rather than an empty window.
  median_.push(profile_.median);
}

OnlineDetector::Result OnlineDetector::feed_checked(double y) {
  Result r;

  // Dropout tracking (periodic signals with few emitters only).
  if (profile_.dropout_window > 0) {
    drop_sum_ += y;
    if (drop_window_.size() < profile_.dropout_window) {
      // elsa-lint: allow(realtime-allocates): the ring fills up to
      // dropout_window floats once (bounded by kMaxDropoutWindow for a
      // loaded model), then overwrites its oldest slot.
      drop_window_.push_back(static_cast<float>(y));
    } else {
      drop_sum_ -= drop_window_[drop_head_];
      drop_window_[drop_head_] = static_cast<float>(y);
      if (++drop_head_ == drop_window_.size()) drop_head_ = 0;
    }
    if (drop_window_.size() == profile_.dropout_window &&
        drop_sum_ < profile_.dropout_min_count) {
      r.kind = OutlierKind::Dropout;
      r.onset = options_.debounce ? !in_dropout_ : true;
      in_dropout_ = true;
    } else {
      in_dropout_ = false;
    }
  }

  // A zero is never a spike when the threshold is >= 0 (dist = -median
  // <= 0), so it need not read the median: its push is owed and paid, in
  // one push_zeros() run, before the median is next read.
  if (y == 0.0 && profile_.spike_delta >= 0.0) {
    r.replacement = y;
    in_spike_ = false;
    ++owed_zeros_;
    return r;
  }
  median_.push_zeros(owed_zeros_);
  owed_zeros_ = 0;

  // Spike / occurrence detection against the causal moving median. The
  // paper's window mixes raw and replaced values; we record the replaced
  // value (the window median) for outliers, which realises the same goal —
  // a sustained fault burst cannot inflate its own baseline.
  const double med = median_.median();
  const double dist = y - med;
  const bool spike = dist > profile_.spike_delta;
  if (spike) {
    r.replacement = med;
    if (r.kind == OutlierKind::None) {
      r.kind = profile_.cls == sigkit::SignalClass::Silent
                   ? OutlierKind::Occurrence
                   : OutlierKind::Spike;
      r.onset = options_.debounce ? !in_spike_ : true;
    }
    in_spike_ = true;
    median_.push(options_.replacement ? med : y);
  } else {
    r.replacement = y;
    in_spike_ = false;
    median_.push(y);
  }
  return r;
}

}  // namespace elsa::core
