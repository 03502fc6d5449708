// Unit and property tests for src/util: RNG, BigCounter, statistics,
// tables, CLI options.
#include <gtest/gtest.h>

#include <cmath>
#include <compare>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/bigint.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace lps {
namespace {

// ---------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t x = rng.below(10);
    ASSERT_LT(x, 10u);
    ++buckets[x];
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 10 * 0.15);
  }
}

TEST(Rng, BelowPowerOfTwo) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(64), 64u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const double y = rng.uniform01_open();
    EXPECT_GT(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(Rng, UniformIntCoversClosedRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, SubstreamIndependentOfCallOrder) {
  const Rng a = Rng::substream(9, 4u, 7u);
  const Rng b = Rng::substream(9, 4u, 7u);
  Rng c = a, d = b;
  EXPECT_EQ(c(), d());
  // Different salts give different streams.
  Rng e = Rng::substream(9, 4u, 8u);
  Rng f = a;
  EXPECT_NE(e(), f());
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

// --------------------------------------------------------- BigCounter --

TEST(BigCounter, ZeroProperties) {
  BigCounter z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_size(), 0u);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.to_u64(), 0u);
  EXPECT_EQ(z.to_double(), 0.0);
  EXPECT_TRUE(std::isinf(z.log2()));
}

TEST(BigCounter, SmallArithmeticMatchesU64) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng() >> 2, b = rng() >> 2;
    BigCounter x(a), y(b);
    EXPECT_EQ((x + y).to_string(), std::to_string(a + b));
    if (a >= b) {
      EXPECT_EQ((x - y).to_u64(), a - b);
    } else {
      EXPECT_THROW(x - y, std::invalid_argument);
    }
    EXPECT_EQ(x < y, a < b);
    EXPECT_EQ(x == y, a == b);
  }
}

TEST(BigCounter, CarryChains) {
  BigCounter x(~0ULL);
  BigCounter one(1);
  BigCounter sum = x + one;  // 2^64
  EXPECT_EQ(sum.bit_size(), 65u);
  EXPECT_EQ(sum.to_string(), "18446744073709551616");
  EXPECT_EQ((sum - one).to_u64(), ~0ULL);
}

TEST(BigCounter, LargeAdditionAgainstInt128) {
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a_lo = rng(), b_lo = rng();
    const std::uint64_t a_hi = rng() >> 33, b_hi = rng() >> 33;
    unsigned __int128 a = (static_cast<unsigned __int128>(a_hi) << 64) | a_lo;
    unsigned __int128 b = (static_cast<unsigned __int128>(b_hi) << 64) | b_lo;
    BigCounter x(a_lo);
    BigCounter hi_part(a_hi);
    for (int s = 0; s < 64; s += 32) hi_part.shift_left(32);
    x += hi_part;
    BigCounter y(b_lo);
    BigCounter hi_b(b_hi);
    for (int s = 0; s < 64; s += 32) hi_b.shift_left(32);
    y += hi_b;
    const unsigned __int128 sum = a + b;
    BigCounter z = x + y;
    // Compare via chunked decomposition.
    const auto chunks = z.to_chunks(32, 5);
    unsigned __int128 recon = 0;
    bool overflow_past_128 = false;
    for (std::uint32_t c : chunks) {
      if (recon >> 96 != 0) overflow_past_128 = true;
      recon = (recon << 32) | c;
    }
    ASSERT_FALSE(overflow_past_128);
    EXPECT_TRUE(recon == sum);
  }
}

TEST(BigCounter, ChunksRoundTrip) {
  Rng rng(31);
  for (int bits : {1, 3, 8, 16, 31, 32}) {
    for (int i = 0; i < 200; ++i) {
      BigCounter x(rng());
      x.shift_left(static_cast<int>(rng.below(40)));
      x += BigCounter(rng());
      const std::size_t chunks_needed =
          (x.bit_size() + bits - 1) / static_cast<std::size_t>(bits) + 1;
      const auto chunks = x.to_chunks(bits, chunks_needed);
      EXPECT_EQ(BigCounter::from_chunks(chunks, bits), x)
          << "bits=" << bits;
    }
  }
}

TEST(BigCounter, ChunksTooFewThrows) {
  BigCounter x(255);
  EXPECT_THROW(x.to_chunks(4, 1), std::invalid_argument);
  EXPECT_NO_THROW(x.to_chunks(4, 2));
}

TEST(BigCounter, ChunksMostSignificantFirst) {
  BigCounter x(0xABCD);
  const auto chunks = x.to_chunks(4, 4);
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0xA, 0xB, 0xC, 0xD}));
}

TEST(BigCounter, Log2Accuracy) {
  BigCounter x(1);
  EXPECT_DOUBLE_EQ(x.log2(), 0.0);
  BigCounter y(1024);
  EXPECT_DOUBLE_EQ(y.log2(), 10.0);
  // 2^200.
  BigCounter big(1);
  for (int i = 0; i < 200; i += 50) {
    BigCounter tmp = big;
    for (int s = 0; s < 50; s += 25) tmp.shift_left(25);
    big = tmp;
  }
  EXPECT_NEAR(big.log2(), 200.0, 1e-9);
}

TEST(BigCounter, ToDoubleMatchesForExactRange) {
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng() >> 12;  // < 2^52: exactly representable
    EXPECT_EQ(BigCounter(v).to_double(), static_cast<double>(v));
  }
}

TEST(BigCounter, SampleBelowInRangeAndCoversSmallCases) {
  Rng rng(41);
  BigCounter bound(6);
  std::map<std::uint64_t, int> hist;
  for (int i = 0; i < 6000; ++i) {
    BigCounter s = BigCounter::sample_below(bound, rng);
    ASSERT_TRUE(s < bound);
    ++hist[s.to_u64()];
  }
  for (std::uint64_t v = 0; v < 6; ++v) {
    EXPECT_GT(hist[v], 700) << v;  // roughly uniform (expected 1000)
  }
}

TEST(BigCounter, SampleBelowHuge) {
  Rng rng(43);
  BigCounter bound(1);
  for (int s = 0; s < 150; s += 30) bound.shift_left(30);  // 2^150
  for (int i = 0; i < 50; ++i) {
    BigCounter s = BigCounter::sample_below(bound, rng);
    EXPECT_TRUE(s < bound);
  }
  EXPECT_THROW(BigCounter::sample_below(BigCounter{}, rng),
               std::invalid_argument);
}

TEST(BigCounter, InlineLimbCarriesIntoHeapAndBack) {
  // 2^64 - 1 lives in the inline limb; +1 carries into a second limb.
  const BigCounter max64(~0ULL);
  BigCounter x = max64;
  x += BigCounter(1);
  EXPECT_FALSE(x.fits_u64());
  EXPECT_EQ(x.bit_size(), 65u);
  EXPECT_EQ(x.to_string(), "18446744073709551616");
  x += max64;  // 2^65 - 1: low limb carries again, high limb grows
  EXPECT_EQ(x.to_string(), "36893488147419103231");
  // Subtracting back below 2^64 leaves one significant limb in heap
  // storage: it must compare and order exactly like an inline value.
  x -= max64;
  x -= BigCounter(1);
  EXPECT_TRUE(x.fits_u64());
  EXPECT_EQ(x, max64);
  EXPECT_EQ(x <=> max64, std::strong_ordering::equal);
  EXPECT_EQ(x.bit_size(), 64u);
  x -= BigCounter(~0ULL - 6);
  EXPECT_EQ(x, BigCounter(6));
  EXPECT_LT(x, BigCounter(7));
  EXPECT_EQ(x.to_u64(), 6u);
  x -= BigCounter(6);
  EXPECT_TRUE(x.is_zero());
  EXPECT_EQ(x, BigCounter{});
  // Self-addition, inline and spilled.
  BigCounter y(~0ULL);
  y += y;
  EXPECT_EQ(y.to_string(), "36893488147419103230");
  y += y;
  EXPECT_EQ(y.to_string(), "73786976294838206460");
}

TEST(BigCounter, CopyAndMoveInlineAndHeap) {
  BigCounter big(~0ULL);
  big.shift_left(40);  // 2^104 - 2^40: two limbs on the heap
  const std::string big_str = big.to_string();
  const BigCounter small(12345);
  const std::vector<const BigCounter*> sources = {&small, &big};
  for (const BigCounter* src : sources) {
    const std::string want = src->to_string();
    BigCounter copy(*src);
    EXPECT_EQ(copy, *src);
    BigCounter assigned(7);
    assigned = *src;
    EXPECT_EQ(assigned, *src);
    BigCounter spilled = big;  // heap target, then overwritten
    spilled = *src;
    EXPECT_EQ(spilled.to_string(), want);
    BigCounter moved(std::move(copy));
    EXPECT_EQ(moved.to_string(), want);
    EXPECT_TRUE(copy.is_zero());  // NOLINT(bugprone-use-after-move)
    BigCounter move_assigned = big;
    move_assigned = std::move(assigned);
    EXPECT_EQ(move_assigned.to_string(), want);
    EXPECT_TRUE(assigned.is_zero());  // NOLINT(bugprone-use-after-move)
    // The moved-from values stay usable.
    copy += BigCounter(3);
    EXPECT_EQ(copy, BigCounter(3));
  }
  EXPECT_EQ(big.to_string(), big_str);
  BigCounter self = big;
  self = *&self;
  EXPECT_EQ(self, big);
  EXPECT_EQ(sizeof(BigCounter), 16u);
}

TEST(BigCounter, SampleBelowDrawsArePinned) {
  // Token selection's backward-edge sampling consumes these draws, so
  // they are part of every bipartite_mcm execution: pinned outputs for
  // a one-limb bound, a bound just above 2^64 and the largest one-limb
  // bound, plus the generator state afterwards.
  Rng rng(2024);
  const BigCounter b1(1000);
  BigCounter b2(~0ULL);
  b2 += BigCounter(12346);  // 2^64 + 12345
  const BigCounter b3(~0ULL);
  std::vector<std::string> got;
  const std::vector<const BigCounter*> bounds = {&b1, &b2, &b3};
  for (const BigCounter* b : bounds) {
    for (int i = 0; i < 4; ++i) {
      got.push_back(BigCounter::sample_below(*b, rng).to_string());
    }
  }
  const std::vector<std::string> want = {
      "111", "243", "608", "745",
      "18035379406078680888", "13477129847027669337",
      "13985981050275766116", "3372794855887293997",
      "7979675469073866724", "17032127011012199473",
      "9527150824713572064", "7356637032364591905"};
  EXPECT_EQ(got, want);
  EXPECT_EQ(rng(), 2588439998601345256ULL);
}

TEST(BigCounter, DecimalStringKnownValues) {
  EXPECT_EQ(BigCounter(123456789).to_string(), "123456789");
  BigCounter x(10);
  // 10 * 2^64 + 5
  x.shift_left(32);
  x.shift_left(32);
  x += BigCounter(5);
  EXPECT_EQ(x.to_string(), "184467440737095516165");
}

// -------------------------------------------------------------- Stats --

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, MergeEqualsSequential) {
  Rng rng(47);
  StreamingStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10 - 5;
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Samples, QuantilesAndExtremes) {
  Samples s;
  for (int i = 10; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
  EXPECT_NEAR(s.mean(), 5.5, 1e-12);
  EXPECT_THROW(s.quantile(1.5), std::invalid_argument);
  Samples empty;
  EXPECT_THROW(empty.quantile(0.5), std::logic_error);
}

// -------------------------------------------------------------- Table --

TEST(Table, MarkdownLayout) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("b").cell(std::size_t{42});
  std::ostringstream os;
  t.print_markdown(os);
  const std::string expect =
      "| name  | value |\n"
      "|-------|-------|\n"
      "| alpha | 1.5   |\n"
      "| b     | 42    |\n";
  EXPECT_EQ(os.str(), expect);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.row().cell("x,y").cell("quote\"inside");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"quote\"\"inside\"\n");
}

TEST(Table, IncompleteRowThrows) {
  Table t({"a", "b"});
  t.row().cell("only-one");
  EXPECT_THROW(t.row(), std::logic_error);
  Table t2({"a"});
  EXPECT_THROW(t2.cell("no-row"), std::logic_error);
}

// ------------------------------------------------------------ Options --

TEST(Options, ParsesAllForms) {
  const char* argv[] = {"prog", "positional", "--alpha=3", "--beta", "7",
                        "--gamma=x y", "--flag"};
  const Args args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_count("alpha", 0, 10), 3u);
  EXPECT_EQ(args.get_count("beta", 0, 10), 7u);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get("gamma", ""), "x y");
  EXPECT_EQ(args.positional(), std::vector<std::string>{"positional"});
  EXPECT_EQ(args.get_count("missing", 5, 10), 5u);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_NO_THROW(args.check_all_used());
}

TEST(Options, BadBoolThrows) {
  const char* argv[] = {"prog", "--flag=maybe"};
  const Args args(2, const_cast<char**>(argv));
  EXPECT_THROW(args.get_bool("flag", false), std::invalid_argument);
}

TEST(Options, BoolFlagLeavesNonBooleanTokenPositional) {
  const char* argv[] = {"prog", "--check", "trace.json", "--json", "false"};
  const Args args(5, const_cast<char**>(argv));
  EXPECT_TRUE(args.get_bool("check", false));
  EXPECT_FALSE(args.get_bool("json", true));
  EXPECT_EQ(args.positional(), std::vector<std::string>{"trace.json"});
  EXPECT_NO_THROW(args.check_all_used());
}

TEST(Options, CheckAllUsedNamesWhatNothingRead) {
  const char* argv[] = {"prog", "--threads", "4", "--thread", "2"};
  const Args args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_count("threads", 1, 8), 4u);
  try {
    args.check_all_used();
    ADD_FAILURE() << "unknown flag accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag '--thread'");
  }

  const char* stray[] = {"prog", "--n=3", "extra"};
  const Args with_stray(3, const_cast<char**>(stray));
  EXPECT_EQ(with_stray.get_count("n", 0, 8), 3u);
  EXPECT_THROW(with_stray.check_all_used(), std::invalid_argument);

  const Args spec("generator 'er'", "n=4, typo=1");
  EXPECT_EQ(spec.require_count("n", 8), 4u);
  try {
    spec.check_all_used();
    ADD_FAILURE() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "generator 'er': unknown key 'typo'");
  }
  // has() is a presence test, not a read.
  const Args probed("config", "k=3");
  EXPECT_TRUE(probed.has("k"));
  EXPECT_THROW(probed.check_all_used(), std::invalid_argument);
}

TEST(Options, CountsAreBounded) {
  const Args args("spec",
                  "max=1024,over=1025,neg=-1,frac=1.5,word=abc,empty=,"
                  "wrap=18446744073709551616,top=18446744073709551615");
  EXPECT_EQ(args.get_count("max", 0, 1024), 1024u);
  EXPECT_EQ(args.get_count("top", 0, UINT64_MAX), UINT64_MAX);
  for (const char* key : {"over", "neg", "frac", "word", "empty", "wrap"}) {
    EXPECT_THROW(args.get_count(key, 0, 1024), std::invalid_argument) << key;
  }
  EXPECT_THROW(args.require_count("absent", 10), std::invalid_argument);
}

TEST(Options, MalformedInputsThrow) {
  EXPECT_THROW(Args("spec", "=3"), std::invalid_argument);
  EXPECT_THROW(Args("spec", "k=1,k=2"), std::invalid_argument);
  EXPECT_TRUE(Args("spec", "flag").get_bool("flag", false));
  const char* repeated[] = {"prog", "--seed", "1", "--seed=2"};
  EXPECT_THROW(Args(4, const_cast<char**>(repeated)), std::invalid_argument);
  // A flag given without a value has nothing for a value reader.
  const char* bare[] = {"prog", "--trace"};
  const Args args(2, const_cast<char**>(bare));
  EXPECT_THROW(args.get("trace", ""), std::invalid_argument);
  EXPECT_THROW(args.get_count("trace", 0, 8), std::invalid_argument);
}

}  // namespace
}  // namespace lps
