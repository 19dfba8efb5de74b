// Unit tests for the small-buffer move-only callable backing the event
// queue: inline storage for small captures, heap fallback for large ones,
// move semantics that transfer (never duplicate) the capture state, in-place
// emplace, and the manager-free path for trivially copyable captures.

#include "sim/inline_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace coopcr::sim {
namespace {

using Fn = InlineFunction<int(), 48>;

TEST(InlineFunction, DefaultIsEmpty) {
  Fn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  Fn null_fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(InlineFunction, InvokesSmallCapture) {
  int x = 41;
  Fn fn = [&x] { return x + 1; };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, MoveTransfersTheCallable) {
  auto counter = std::make_shared<int>(0);
  Fn fn = [counter] { return ++*counter; };
  EXPECT_EQ(counter.use_count(), 2);
  Fn moved = std::move(fn);
  // Moved, not copied: still exactly one stored reference.
  EXPECT_EQ(counter.use_count(), 2);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_EQ(moved(), 1);
}

TEST(InlineFunction, DestroyReleasesCaptures) {
  auto probe = std::make_shared<int>(0);
  std::weak_ptr<int> watch = probe;
  {
    Fn fn = [probe] { return *probe; };
    probe.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, NullAssignmentReleasesCaptures) {
  auto probe = std::make_shared<int>(0);
  std::weak_ptr<int> watch = probe;
  Fn fn = [probe] { return *probe; };
  probe.reset();
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, LargeCapturesFallBackToTheHeap) {
  // A capture bigger than the inline capacity still works (boxed).
  std::array<double, 16> big{};  // 128 bytes > 48
  big[0] = 1.5;
  big[15] = 2.5;
  Fn fn = [big] { return static_cast<int>(big[0] + big[15]); };
  EXPECT_EQ(fn(), 4);
  Fn moved = std::move(fn);
  EXPECT_EQ(moved(), 4);
}

TEST(InlineFunction, LargeCaptureDestructionReleasesState) {
  auto probe = std::make_shared<int>(7);
  std::weak_ptr<int> watch = probe;
  std::array<char, 100> pad{};
  {
    Fn fn = [probe, pad] { return *probe + pad[0]; };
    probe.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, MoveAssignmentReplacesExisting) {
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  std::weak_ptr<int> watch_a = a;
  Fn fn = [a] { return *a; };
  a.reset();
  Fn other = [b] { return *b; };
  fn = std::move(other);
  EXPECT_TRUE(watch_a.expired());  // previous callable destroyed
  EXPECT_EQ(fn(), 2);
}

TEST(InlineFunction, ArgumentsArePassedThrough) {
  InlineFunction<int(int, int), 48> add = [](int x, int y) { return x + y; };
  EXPECT_EQ(add(20, 22), 42);
}

TEST(InlineFunction, SelfMoveAssignIsSafe) {
  Fn fn = [] { return 5; };
  Fn& alias = fn;
  fn = std::move(alias);
  EXPECT_EQ(fn(), 5);
}

// --- object lifetime ---------------------------------------------------------

/// Callable that counts its own lifetime events. The user-defined special
/// members make it non-trivially copyable, so it goes through the manager.
/// `Pad` bytes of payload push it over the inline capacity when large.
template <std::size_t Pad>
struct Counted {
  static inline int made = 0;       ///< constructions from a value
  static inline int copies = 0;     ///< copy constructions (must stay 0)
  static inline int moves = 0;      ///< move constructions
  static inline int destroyed = 0;  ///< destructor runs, moved-from included
  static inline int live = 0;       ///< instances currently alive
  static void reset() { made = copies = moves = destroyed = live = 0; }

  explicit Counted(int v) : value(v) {
    ++made;
    ++live;
  }
  Counted(const Counted& other) : value(other.value) {
    ++copies;
    ++live;
  }
  Counted(Counted&& other) noexcept : value(other.value) {
    ++moves;
    ++live;
  }
  Counted& operator=(const Counted&) = delete;
  ~Counted() {
    ++destroyed;
    --live;
  }
  int operator()() const { return value + static_cast<int>(pad[0]); }

  int value = 0;
  std::array<char, Pad> pad{};
};

using SmallCounted = Counted<1>;
static_assert(!std::is_trivially_copyable_v<SmallCounted>);
static_assert(sizeof(SmallCounted) <= Fn::inline_capacity());

TEST(InlineFunction, ManagedCaptureLivesExactlyOnceThroughEveryMove) {
  SmallCounted::reset();
  {
    Fn fn;
    fn.emplace(SmallCounted(7));
    EXPECT_EQ(SmallCounted::made, 1);
    EXPECT_EQ(SmallCounted::live, 1);  // the temporary is gone already
    Fn moved = std::move(fn);
    EXPECT_EQ(SmallCounted::live, 1);
    Fn target = [] { return 0; };
    target = std::move(moved);
    EXPECT_EQ(SmallCounted::live, 1);
    EXPECT_EQ(target(), 7);
    target.emplace(SmallCounted(8));  // replaces (destroys) the old capture
    EXPECT_EQ(SmallCounted::live, 1);
    EXPECT_EQ(target(), 8);
    target = nullptr;
    EXPECT_EQ(SmallCounted::live, 0);
    EXPECT_FALSE(static_cast<bool>(target));
  }
  // Nothing destroyed twice when the emptied wrappers go out of scope, and
  // nothing ever copied: every instance (two values and whatever relocation
  // moved) was destroyed exactly once.
  EXPECT_EQ(SmallCounted::live, 0);
  EXPECT_EQ(SmallCounted::made, 2);
  EXPECT_EQ(SmallCounted::copies, 0);
  EXPECT_EQ(SmallCounted::destroyed,
            SmallCounted::made + SmallCounted::moves);
}

TEST(InlineFunction, EmplaceTakesAnInlineFunctionAsIs) {
  SmallCounted::reset();
  Fn source = SmallCounted(3);
  Fn fn;
  fn.emplace(std::move(source));  // moved in, not wrapped in a second layer
  EXPECT_FALSE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(fn(), 3);
  EXPECT_EQ(SmallCounted::live, 1);
}

TEST(InlineFunction, TriviallyCopyableCaptureSurvivesRepeatedMoves) {
  const std::uint64_t a = 0x0123456789abcdefull;
  const std::uint64_t b = 0x0fedcba987654321ull;
  const double c = 2.5;
  auto lambda = [a, b, c] {
    return static_cast<int>((a ^ b) & 0xffff) + static_cast<int>(c * 2);
  };
  static_assert(std::is_trivially_copyable_v<decltype(lambda)>);
  const int expected = lambda();
  Fn fn;
  fn.emplace(lambda);
  for (int i = 0; i < 100; ++i) {
    Fn hop = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
    fn = std::move(hop);
  }
  EXPECT_EQ(fn(), expected);
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, BoxedFallbackFreesItsBox) {
  using BigCounted = Counted<128>;
  static_assert(sizeof(BigCounted) > Fn::inline_capacity());
  BigCounted::reset();
  {
    Fn fn = BigCounted(5);
    EXPECT_EQ(BigCounted::live, 1);  // the boxed copy only
    Fn moved = std::move(fn);        // steals the box: no new instance
    EXPECT_EQ(BigCounted::live, 1);
    EXPECT_EQ(moved(), 5);
    Fn other = BigCounted(6);
    moved = std::move(other);  // the first box is freed here
    EXPECT_EQ(BigCounted::live, 1);
    EXPECT_EQ(moved(), 6);
  }
  EXPECT_EQ(BigCounted::live, 0);
  EXPECT_EQ(BigCounted::copies, 0);
  EXPECT_EQ(BigCounted::destroyed, BigCounted::made + BigCounted::moves);
}

}  // namespace
}  // namespace coopcr::sim
