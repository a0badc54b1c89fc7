// Front-end option parsing: the serve daemon's flags, and its refusal of
// any argument it does not know.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/options.h"

namespace cloudmap {
namespace {

ServeOptions parse_serve(std::vector<std::string> args) {
  args.insert(args.begin(), "cloudmap_serve");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return serve_options_from_env_and_args(static_cast<int>(argv.size()),
                                         argv.data());
}

TEST(ServeOptions, KnownFlagsParse) {
  const ServeOptions options =
      parse_serve({"--snapshot", "a.snap", "--port", "0", "--max-clients",
                   "8", "--no-metrics"});
  ASSERT_TRUE(options.ok()) << options.error;
  EXPECT_EQ(options.snapshot_path, "a.snap");
  EXPECT_EQ(options.port, 0);
  EXPECT_EQ(options.max_clients, 8);
  EXPECT_FALSE(options.metrics);
}

TEST(ServeOptions, UnknownArgumentIsAnError) {
  // A misspelt flag must not be dropped: it would leave max_clients at its
  // default and serve anyway.
  const ServeOptions misspelt =
      parse_serve({"--snapshot", "a.snap", "--max-client", "8"});
  EXPECT_FALSE(misspelt.ok());
  EXPECT_NE(misspelt.error.find("'--max-client'"), std::string::npos)
      << misspelt.error;
  // The daemon takes no operands either.
  const ServeOptions operand = parse_serve({"--snapshot", "a.snap", "b.snap"});
  EXPECT_FALSE(operand.ok());
  EXPECT_NE(operand.error.find("'b.snap'"), std::string::npos)
      << operand.error;
}

TEST(ServeOptions, BadValuesAreErrors) {
  EXPECT_FALSE(parse_serve({"--port", "70000"}).ok());
  EXPECT_FALSE(parse_serve({"--max-clients", "0"}).ok());
  EXPECT_FALSE(parse_serve({"--snapshot"}).ok());
}

}  // namespace
}  // namespace cloudmap
