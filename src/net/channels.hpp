// The channel vocabulary for 802.11n auto-configuration.
//
// A "color" in the paper's graph-coloring formulation is either a basic
// 20 MHz channel c_i or a composite 40 MHz channel {c_i, c_j} built from
// two adjacent basic channels. Basic colors c_i and c_j do not conflict
// with each other, but each conflicts with the composite {c_i, c_j}
// (paper §4.2). A Channel is therefore represented by the set of basic
// 20 MHz channel indices it occupies.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "phy/mcs.hpp"

namespace acorn::net {

class Channel {
 public:
  /// Basic 20 MHz channel with index `idx` >= 0.
  static Channel basic(int idx);
  /// Composite 40 MHz channel occupying basic channels (2*pair, 2*pair+1)
  /// — 802.11n bonds a primary with its adjacent secondary.
  static Channel bonded(int pair);

  phy::ChannelWidth width() const { return width_; }
  bool is_bonded() const { return width_ == phy::ChannelWidth::k40MHz; }

  /// Lowest-index 20 MHz channel occupied.
  int primary() const { return first_; }
  /// Occupied basic channel indices (one or two).
  std::vector<int> occupied() const;

  /// Spectral-overlap conflict: true when the occupied sets intersect.
  bool conflicts(const Channel& other) const { return shared(other) > 0; }

  /// Fraction of this channel's bandwidth overlapped by `other` (0, 0.5
  /// or 1).
  double overlap_fraction(const Channel& other) const {
    return static_cast<double>(shared(other)) /
           static_cast<double>(span());
  }

  std::string to_string() const;

  friend bool operator==(const Channel& a, const Channel& b) {
    return a.width_ == b.width_ && a.first_ == b.first_;
  }
  friend bool operator!=(const Channel& a, const Channel& b) {
    return !(a == b);
  }

 private:
  Channel(phy::ChannelWidth width, int first) : width_(width), first_(first) {}
  // The occupied basic indices are the interval [first_, first_ +
  // span()), so overlap is an interval intersection: no occupied() sets.
  int span() const { return is_bonded() ? 2 : 1; }
  int shared(const Channel& other) const {
    const int lo = std::max(first_, other.first_);
    const int hi = std::min(first_ + span(), other.first_ + other.span());
    return hi > lo ? hi - lo : 0;
  }
  phy::ChannelWidth width_;
  int first_;  // lowest occupied basic index
};

/// The set of colors available to the allocator: `num_basic` 20 MHz
/// channels (the paper uses the twelve 5 GHz channels) plus the
/// floor(num_basic/2) valid 40 MHz bonds.
class ChannelPlan {
 public:
  explicit ChannelPlan(int num_basic = 12);

  int num_basic() const { return num_basic_; }
  int num_bonded() const { return num_basic_ / 2; }

  std::vector<Channel> basic_channels() const;
  std::vector<Channel> bonded_channels() const;
  /// All colors: basic first, then composite.
  std::vector<Channel> all_channels() const;

 private:
  int num_basic_;
};

}  // namespace acorn::net
