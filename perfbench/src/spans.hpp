// In-memory span recorder for the traced run.  The benchmark opens a span
// around every call it makes into a layer's public function; spans carry
// a name, start, end, parent span and item id, stay in memory, and are
// written out once the run ends.  One recorder belongs to one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t name = 0;  ///< index into Tracer::names()
  std::uint32_t parent = kNoParent;
  std::uint64_t item = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children may nest or overlap,
/// and are clipped to the parent's interval).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span as a child of the innermost open span (a root when none
  /// is open).  Returns its index; a disabled tracer records nothing.
  std::uint32_t open(std::string_view name, std::uint64_t item);
  void close(std::uint32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Per-name totals over all spans.
  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Duration of spans named `name`, summed per item (µs), in item order.
  [[nodiscard]] std::vector<double> per_item_us(std::string_view name) const;

  /// Self time of every non-root span divided by the summed duration of
  /// the root (item) spans: the share of item time the named layers
  /// account for.
  [[nodiscard]] double attributed_share() const;

  /// Writes one tab-separated line per span (name, parent, item, start,
  /// end; nanoseconds from the first span).
  void write(const std::string& path) const;

 private:
  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer& t, std::string_view name, std::uint64_t item)
      : t_(t), index_(t.enabled() ? t.open(name, item) : 0) {}
  ~Scope() {
    if (t_.enabled()) t_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t index_;
};

}  // namespace perfbench
