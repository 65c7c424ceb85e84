// Unit tests for the util substrate: Status/Result, string helpers,
// deterministic RNG, and the ExecContext budget machinery that powers the
// benchmark harness's time-out / mem-out rows.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "util/exec_context.h"
#include "util/hash.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/string_util.h"

namespace sparqlog {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status st = Status::Timeout("deadline exceeded");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTimeout());
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_EQ(st.ToString(), "Timeout: deadline exceeded");
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, ValueAndStatusPropagation) {
  auto ok = Half(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  auto bad = Half(3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Chain(int x) {
  SPARQLOG_ASSIGN_OR_RETURN(int half, Half(x));
  SPARQLOG_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Chain(20), 5);
  EXPECT_FALSE(Chain(10).ok());  // 5 is odd at the second step
}

TEST(StringUtilTest, Basics) {
  EXPECT_TRUE(StartsWith("http://x", "http"));
  EXPECT_FALSE(StartsWith("ftp", "ftpx"));
  EXPECT_TRUE(EndsWith("file.ttl", ".ttl"));
  EXPECT_EQ(StripAscii("  a b \n"), "a b");
  EXPECT_EQ(AsciiToUpper("AbC1"), "ABC1");
  EXPECT_EQ(AsciiToLower("AbC1"), "abc1");
  EXPECT_TRUE(AsciiEqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtilTest, Parsing) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5e2"), 250.0);
  EXPECT_FALSE(ParseDouble("abc").has_value());
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings({"x", "y"}, "-"), "x-y");
}

TEST(StringUtilTest, EscapeStringLiteral) {
  EXPECT_EQ(EscapeStringLiteral("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(10), 10u);
  EXPECT_EQ(rng.Uniform(0), 0u);
}

TEST(RngTest, SkewedFavorsSmallIndices) {
  Rng rng(3);
  size_t small = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Skewed(100) < 25) ++small;
  }
  // u^2 distribution: P(< 25) = 0.5.
  EXPECT_GT(small, 800u);
}

TEST(ExecContextTest, UnlimitedByDefault) {
  ExecContext ctx;
  ctx.AddTuples(1'000'000);
  EXPECT_TRUE(ctx.CheckBudget().ok());
}

TEST(ExecContextTest, TupleBudgetTriggersMemOut) {
  ExecContext ctx;
  ctx.set_tuple_budget(100);
  ctx.AddTuples(100);
  EXPECT_TRUE(ctx.CheckBudget().ok());  // at the limit is fine
  ctx.AddTuples(1);
  EXPECT_TRUE(ctx.CheckBudget().IsResourceExhausted());
}

TEST(ExecContextTest, DeadlineTriggersTimeout) {
  ExecContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(ctx.PastDeadline());
  // CheckBudget consults the clock every kClockStride calls.
  Status last = Status::OK();
  for (int i = 0; i < 1000 && last.ok(); ++i) last = ctx.CheckBudget();
  EXPECT_TRUE(last.IsTimeout());
}

TEST(ExecContextTest, BatchAdvanceSamplesClockPerStrideOfWork) {
  ExecContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // A batch that crosses a stride boundary samples the clock in ONE call:
  // cadence follows work done (e.g. rows a TC-kernel run appends), not
  // call count.
  EXPECT_TRUE(ctx.CheckBudget(ExecContext::kClockStride).IsTimeout());
  // A batch inside one stride window does not sample...
  ExecContext ctx2;
  ctx2.set_deadline_after(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(ctx2.CheckBudget(10).ok());
  // ...but cumulative batches that cross the boundary do.
  Status last = Status::OK();
  int batches = 0;
  for (; batches < 100 && last.ok(); ++batches) last = ctx2.CheckBudget(100);
  EXPECT_TRUE(last.IsTimeout());
  // 10 + 100k crosses the 256 boundary at the 3rd batch.
  EXPECT_EQ(batches, 3);
}

TEST(ExecContextTest, UnitAdvanceFirstSamplesOnStrideBoundary) {
  // advance=1 consults the clock first on the kClockStride-th call.
  ExecContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (uint32_t i = 0; i + 1 < ExecContext::kClockStride; ++i) {
    EXPECT_TRUE(ctx.CheckBudget().ok()) << i;
  }
  EXPECT_TRUE(ctx.CheckBudget().IsTimeout());
}

TEST(RetryTest, BackoffDelayIsDeterministicCappedAndJittered) {
  util::BackoffPolicy policy;
  policy.initial_delay = std::chrono::milliseconds(100);
  policy.max_delay = std::chrono::milliseconds(400);
  policy.multiplier = 2.0;
  policy.jitter = 0.2;
  policy.seed = 7;

  // Same (seed, attempt) -> same delay, every time.
  EXPECT_EQ(util::BackoffDelay(policy, 0), util::BackoffDelay(policy, 0));
  // Each attempt's delay lands within the +/- jitter band of the
  // nominal exponential value, and the cap binds from attempt 2 on
  // (100 * 2^2 = 400 = max).
  for (uint32_t attempt = 0; attempt < 5; ++attempt) {
    double nominal = std::min(100.0 * std::pow(2.0, attempt), 400.0);
    auto d = util::BackoffDelay(policy, attempt);
    EXPECT_GE(d.count(), static_cast<int64_t>(nominal * 0.8) - 1) << attempt;
    EXPECT_LE(d.count(), static_cast<int64_t>(nominal * 1.2) + 1) << attempt;
  }
  // Different seeds decorrelate the schedule.
  util::BackoffPolicy other = policy;
  other.seed = 8;
  EXPECT_NE(util::BackoffDelay(policy, 0), util::BackoffDelay(other, 0));
  // A server Retry-After hint is a lower bound.
  EXPECT_GE(util::BackoffDelay(policy, 0, /*retry_after_seconds=*/1).count(),
            1000);
}

TEST(RetryTest, RetriesOnlyUnavailableAndStopsAtMaxAttempts) {
  util::BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(1);

  // Transient unavailability: fails twice, succeeds on the third try.
  int calls = 0;
  Status st = util::RetryWithBackoff(policy, [&] {
    ++calls;
    return calls < 3 ? Status::Unavailable("shed") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);

  // Permanent unavailability: gives up after max_attempts.
  calls = 0;
  st = util::RetryWithBackoff(policy, [&] {
    ++calls;
    return Status::Unavailable("shed");
  });
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(calls, 3);

  // Non-transient failures are never retried: a parse error will not
  // fix itself, and retrying it would just add load.
  calls = 0;
  st = util::RetryWithBackoff(policy, [&] {
    ++calls;
    return Status::ParseError("bad query");
  });
  EXPECT_TRUE(st.IsParseError());
  EXPECT_EQ(calls, 1);
}

TEST(HashTest, HashRangeDiffersOnContent) {
  std::vector<uint64_t> a{1, 2, 3}, b{1, 2, 4}, c{1, 2, 3};
  EXPECT_EQ(HashRange(a.begin(), a.end()), HashRange(c.begin(), c.end()));
  EXPECT_NE(HashRange(a.begin(), a.end()), HashRange(b.begin(), b.end()));
}

}  // namespace
}  // namespace sparqlog
