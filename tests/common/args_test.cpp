#include "common/args.h"

#include "common/error.h"

#include <gtest/gtest.h>

namespace cubist {
namespace {

// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) {
      pointers_.push_back(s.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(ArgParserTest, DefaultsSurviveEmptyArgv) {
  ArgParser parser("prog", "doc");
  auto* n = parser.add_int("n", 42, "count");
  auto* x = parser.add_double("x", 1.5, "factor");
  auto* v = parser.add_bool("verbose", false, "chatty");
  auto* s = parser.add_string("name", "abc", "label");
  Argv args({"prog"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv()));
  EXPECT_EQ(*n, 42);
  EXPECT_DOUBLE_EQ(*x, 1.5);
  EXPECT_FALSE(*v);
  EXPECT_EQ(*s, "abc");
}

TEST(ArgParserTest, EqualsForm) {
  ArgParser parser("prog", "doc");
  auto* n = parser.add_int("n", 0, "count");
  auto* s = parser.add_string("name", "", "label");
  Argv args({"prog", "--n=17", "--name=cube"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv()));
  EXPECT_EQ(*n, 17);
  EXPECT_EQ(*s, "cube");
}

TEST(ArgParserTest, SpaceSeparatedForm) {
  ArgParser parser("prog", "doc");
  auto* n = parser.add_int("n", 0, "count");
  Argv args({"prog", "--n", "23"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv()));
  EXPECT_EQ(*n, 23);
}

TEST(ArgParserTest, AFlagIsNeverTheValueOfTheFlagBeforeIt) {
  // "--json --algorithm=ring" is two flags, the first without its value.
  ArgParser parser("prog", "doc");
  auto* json = parser.add_string("json", "", "report path");
  auto* algorithm = parser.add_string("algorithm", "binomial", "algorithm");
  Argv args({"prog", "--json", "--algorithm=ring"});
  EXPECT_FALSE(parser.parse(args.argc(), args.argv()));
  EXPECT_EQ(*json, "");
  // The '=' form passes a value that begins with "--", and a negative
  // number is still a value.
  auto* n = parser.add_int("n", 0, "count");
  Argv equals({"prog", "--json=--x", "--n", "-5", "--algorithm", "ring"});
  ASSERT_TRUE(parser.parse(equals.argc(), equals.argv()));
  EXPECT_EQ(*json, "--x");
  EXPECT_EQ(*n, -5);
  EXPECT_EQ(*algorithm, "ring");
}

TEST(ArgParserTest, BareBooleanSetsTrue) {
  ArgParser parser("prog", "doc");
  auto* v = parser.add_bool("verbose", false, "chatty");
  Argv args({"prog", "--verbose"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv()));
  EXPECT_TRUE(*v);
}

TEST(ArgParserTest, BooleanExplicitFalse) {
  ArgParser parser("prog", "doc");
  auto* v = parser.add_bool("verbose", true, "chatty");
  Argv args({"prog", "--verbose=false"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv()));
  EXPECT_FALSE(*v);
}

TEST(ArgParserTest, UnknownFlagFails) {
  ArgParser parser("prog", "doc");
  Argv args({"prog", "--bogus=1"});
  EXPECT_FALSE(parser.parse(args.argc(), args.argv()));
}

TEST(ArgParserTest, BadNumberFails) {
  ArgParser parser("prog", "doc");
  parser.add_int("n", 0, "count");
  Argv args({"prog", "--n=notanumber"});
  EXPECT_FALSE(parser.parse(args.argc(), args.argv()));
}

TEST(ArgParserTest, HelpReturnsFalse) {
  ArgParser parser("prog", "doc");
  Argv args({"prog", "--help"});
  EXPECT_FALSE(parser.parse(args.argc(), args.argv()));
}

TEST(ArgParserTest, PositionalArgumentRejected) {
  ArgParser parser("prog", "doc");
  Argv args({"prog", "stray"});
  EXPECT_FALSE(parser.parse(args.argc(), args.argv()));
}

TEST(ArgParserTest, DuplicateRegistrationThrows) {
  ArgParser parser("prog", "doc");
  parser.add_int("n", 0, "count");
  EXPECT_THROW(parser.add_double("n", 0.0, "again"), InvalidArgument);
}

TEST(ArgParserTest, UsageListsFlagsAndDefaults) {
  ArgParser parser("prog", "does things");
  parser.add_int("n", 42, "count of items");
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("42"), std::string::npos);
  EXPECT_NE(usage.find("does things"), std::string::npos);
}

TEST(XListTest, ParsesShapesAndRejectsMalformedTokens) {
  EXPECT_EQ(parse_x_list("16x12x8", "sizes"),
            (std::vector<std::int64_t>{16, 12, 8}));
  EXPECT_EQ(parse_x_list("7", "sizes"), (std::vector<std::int64_t>{7}));
  EXPECT_EQ(parse_x_int_list("1x1x0", "log-splits"),
            (std::vector<int>{1, 1, 0}));
  for (const char* bad : {"", "4xax4", "4xx4", "4x", "x4", "4x4.5",
                          "99999999999999999999"}) {
    EXPECT_THROW(parse_x_list(bad, "sizes"), InvalidArgument) << bad;
  }
  EXPECT_THROW(parse_x_int_list("1x1x4294967296", "log-splits"),
               InvalidArgument);
  EXPECT_THROW(parse_x_int_list("-2147483649", "log-splits"),
               InvalidArgument);
}

TEST(InvalidArgumentTest, MessageIsTheCheckTextWithoutItsLocation) {
  try {
    parse_x_list("4xax4", "sizes");
    FAIL() << "no throw";
  } catch (const InvalidArgument& error) {
    EXPECT_EQ(error.message(),
              "bad token 'a' in --sizes='4xax4' (want e.g. 16x12x8)");
    // what() still names the check and where it failed.
    const std::string what = error.what();
    EXPECT_NE(what.find("precondition: `"), std::string::npos) << what;
    EXPECT_NE(what.find("args.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.substr(what.size() - error.message().size()),
              error.message());
  }
  // A check without a message reports its expression.
  const int extent = -1;
  try {
    CUBIST_CHECK(extent >= 0);
    FAIL() << "no throw";
  } catch (const InvalidArgument& error) {
    EXPECT_EQ(error.message(), "extent >= 0");
  }
  EXPECT_EQ(InvalidArgument("plain").message(), "plain");
}

}  // namespace
}  // namespace cubist
