#include "net/channels.hpp"

#include <stdexcept>

namespace acorn::net {

Channel Channel::basic(int idx) {
  if (idx < 0) throw std::invalid_argument("negative channel index");
  return Channel(phy::ChannelWidth::k20MHz, idx);
}

Channel Channel::bonded(int pair) {
  if (pair < 0) throw std::invalid_argument("negative bond index");
  return Channel(phy::ChannelWidth::k40MHz, 2 * pair);
}

std::vector<int> Channel::occupied() const {
  if (is_bonded()) return {first_, first_ + 1};
  return {first_};
}

std::string Channel::to_string() const {
  if (is_bonded()) {
    return "ch" + std::to_string(first_) + "+" + std::to_string(first_ + 1) +
           " (40MHz)";
  }
  return "ch" + std::to_string(first_) + " (20MHz)";
}

ChannelPlan::ChannelPlan(int num_basic) : num_basic_(num_basic) {
  if (num_basic < 1) throw std::invalid_argument("need >= 1 basic channel");
}

std::vector<Channel> ChannelPlan::basic_channels() const {
  std::vector<Channel> out;
  out.reserve(static_cast<std::size_t>(num_basic_));
  for (int i = 0; i < num_basic_; ++i) out.push_back(Channel::basic(i));
  return out;
}

std::vector<Channel> ChannelPlan::bonded_channels() const {
  std::vector<Channel> out;
  out.reserve(static_cast<std::size_t>(num_bonded()));
  for (int i = 0; i < num_bonded(); ++i) out.push_back(Channel::bonded(i));
  return out;
}

std::vector<Channel> ChannelPlan::all_channels() const {
  std::vector<Channel> out = basic_channels();
  const std::vector<Channel> bonds = bonded_channels();
  out.insert(out.end(), bonds.begin(), bonds.end());
  return out;
}

}  // namespace acorn::net
