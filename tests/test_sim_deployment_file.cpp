#include "sim/deployment_file.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace acorn::sim {
namespace {

TEST(DeploymentFile, ParsesMinimalDeployment) {
  const DeploymentSpec spec = parse_deployment(
      "ap 0 0\n"
      "client 5 5\n");
  EXPECT_EQ(spec.topology.num_aps(), 1);
  EXPECT_EQ(spec.topology.num_clients(), 1);
  EXPECT_DOUBLE_EQ(spec.topology.ap(0).tx_dbm, 15.0);
  EXPECT_EQ(spec.num_channels, 12);
}

TEST(DeploymentFile, ParsesAllKeywords) {
  const DeploymentSpec spec = parse_deployment(
      "# a comment line\n"
      "pathloss exponent 4.0\n"
      "pathloss ref 50\n"
      "pathloss shadowing 6\n"
      "channels 4\n"
      "seed 99\n"
      "ap 1 2 18   # inline comment\n"
      "client 3 4\n");
  EXPECT_DOUBLE_EQ(spec.pathloss.exponent, 4.0);
  EXPECT_DOUBLE_EQ(spec.pathloss.ref_loss_db, 50.0);
  EXPECT_DOUBLE_EQ(spec.pathloss.shadowing_sigma_db, 6.0);
  EXPECT_EQ(spec.num_channels, 4);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_DOUBLE_EQ(spec.topology.ap(0).tx_dbm, 18.0);
}

TEST(DeploymentFile, BlankAndCommentLinesIgnored) {
  const DeploymentSpec spec = parse_deployment(
      "\n"
      "   \n"
      "# only comments here\n"
      "ap 0 0\n");
  EXPECT_EQ(spec.topology.num_aps(), 1);
}

TEST(DeploymentFile, ErrorsCarryLineNumbers) {
  try {
    parse_deployment("ap 0 0\nbogus 1 2\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(DeploymentFile, RejectsMalformedFields) {
  EXPECT_THROW(parse_deployment("ap 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_deployment("client\n"), std::invalid_argument);
  EXPECT_THROW(parse_deployment("ap 0 0\npathloss bogus 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_deployment("ap 0 0\nchannels 0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_deployment("ap 0 0 15 77\n"), std::invalid_argument);
  // A non-numeric or non-finite tx_dbm is an error, not an AP at 0 dBm.
  EXPECT_THROW(parse_deployment("ap 0 0 abc\n"), std::invalid_argument);
  EXPECT_THROW(parse_deployment("ap 0 0 abc 5\n"), std::invalid_argument);
  EXPECT_THROW(parse_deployment("ap 0 0 inf\n"), std::invalid_argument);
}

TEST(DeploymentFile, RejectsEmptyDeployment) {
  EXPECT_THROW(parse_deployment("# nothing\n"), std::invalid_argument);
  EXPECT_THROW(parse_deployment("client 1 1\n"), std::invalid_argument);
}

TEST(DeploymentFile, BuildProducesWorkingWlan) {
  const DeploymentSpec spec = parse_deployment(
      "pathloss shadowing 3\n"
      "seed 5\n"
      "ap 0 0\n"
      "ap 60 0\n"
      "client 2 1\n"
      "client 58 1\n");
  const Wlan wlan = spec.build();
  EXPECT_EQ(wlan.topology().num_aps(), 2);
  const net::Association assoc = {0, 1};
  const net::ChannelAssignment ch = {net::Channel::basic(0),
                                     net::Channel::basic(1)};
  EXPECT_GT(wlan.evaluate(assoc, ch).total_goodput_bps, 1e6);
}

TEST(DeploymentFile, BuildIsDeterministicPerSeed) {
  const std::string text =
      "pathloss shadowing 5\nseed 11\nap 0 0\nclient 10 0\n";
  const Wlan a = parse_deployment(text).build();
  const Wlan b = parse_deployment(text).build();
  EXPECT_DOUBLE_EQ(a.budget().ap_client_loss_db(0, 0),
                   b.budget().ap_client_loss_db(0, 0));
}

}  // namespace
}  // namespace acorn::sim
