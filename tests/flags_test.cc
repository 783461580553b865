#include "eval/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace edgeshed::eval {
namespace {

Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "binary");
  std::vector<char*> argv;
  for (auto& arg : storage) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  auto flags = MakeFlags({"--scale=0.5", "--name=test"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "test");
}

TEST(FlagsTest, SpaceSyntax) {
  auto flags = MakeFlags({"--seed", "42"});
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
}

TEST(FlagsTest, BareFlagIsTrue) {
  auto flags = MakeFlags({"--full"});
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_TRUE(flags.Has("full"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  auto flags = MakeFlags({});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 2.5), 2.5);
  EXPECT_EQ(flags.GetInt("seed", 7), 7);
  EXPECT_FALSE(flags.GetBool("full", false));
  EXPECT_EQ(flags.GetString("name", "fallback"), "fallback");
  EXPECT_FALSE(flags.Has("anything"));
}

TEST(FlagsTest, ExplicitFalse) {
  auto flags = MakeFlags({"--full=false", "--other=0"});
  EXPECT_FALSE(flags.GetBool("full", true));
  EXPECT_FALSE(flags.GetBool("other", true));
}

TEST(FlagsTest, PositionalArguments) {
  auto flags = MakeFlags({"input.txt", "--scale=2", "output.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, NegativeNumbersViaEquals) {
  auto flags = MakeFlags({"--offset=-3"});
  EXPECT_EQ(flags.GetInt("offset", 0), -3);
}

TEST(FlagsTest, LastValueWins) {
  auto flags = MakeFlags({"--p=0.1", "--p=0.9"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.0), 0.9);
}

TEST(FlagsTest, NamesListsGivenFlagsSorted) {
  auto flags = MakeFlags({"--seed=1", "pos", "--full", "--p", "0.5"});
  EXPECT_EQ(flags.names(), (std::vector<std::string>{"full", "p", "seed"}));
}

constexpr FlagSpec kAccepted[] = {{"method", FlagType::kString},
                                  {"p", FlagType::kDouble},
                                  {"seed", FlagType::kInt},
                                  {"reshed", FlagType::kBool}};

TEST(ValidateFlagsTest, AcceptsWellFormedKnownFlags) {
  auto flags = MakeFlags({"--method=bm2", "--p=0.25", "--seed=-7", "--reshed"});
  EXPECT_TRUE(ValidateFlags(flags, kAccepted).ok());
  EXPECT_TRUE(ValidateFlags(MakeFlags({"--p=1e-3", "--reshed=0"}), kAccepted)
                  .ok());
}

TEST(ValidateFlagsTest, UnknownFlagIsNamed) {
  Status status = ValidateFlags(MakeFlags({"--methd=bm2"}), kAccepted);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--methd"), std::string::npos);
}

TEST(ValidateFlagsTest, MalformedIntIsRejected) {
  for (const char* arg : {"--seed=1e3", "--seed=12abc", "--seed=", "--seed"}) {
    Status status = ValidateFlags(MakeFlags({arg}), kAccepted);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("--seed"), std::string::npos) << arg;
  }
}

TEST(ValidateFlagsTest, MalformedDoubleIsRejected) {
  for (const char* arg : {"--p=0,5", "--p=half", "--p=0.5x"}) {
    Status status = ValidateFlags(MakeFlags({arg}), kAccepted);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("--p"), std::string::npos) << arg;
  }
}

TEST(ValidateFlagsTest, MalformedBoolIsRejected) {
  Status status = ValidateFlags(MakeFlags({"--reshed=yes"}), kAccepted);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace edgeshed::eval
