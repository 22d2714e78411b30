#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent) {
      kids.at(s.parent).emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start_ns);
      b = std::min(b, p.end_ns);
      if (a >= b) continue;
      if (in_run && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    out[i] = (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

std::uint32_t Tracer::open(std::string_view name, std::uint64_t item) {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    it = ids_.emplace(std::string(name),
                      static_cast<std::uint32_t>(names_.size()))
             .first;
    names_.emplace_back(name);
  }
  Span s;
  s.name = it->second;
  s.parent = open_.empty() ? Span::kNoParent : open_.back();
  s.item = item;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return index;
}

void Tracer::close(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<std::int64_t> self = self_times(spans_);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[names_[spans_[i].name]];
    ++t.count;
    t.total_us += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) /
                  1e3;
    t.self_us += static_cast<double>(self[i]) / 1e3;
  }
  return out;
}

std::vector<double> Tracer::per_item_us(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return {};
  std::map<std::uint64_t, double> sums;
  for (const Span& s : spans_) {
    if (s.name == it->second) {
      sums[s.item] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [item, us] : sums) out.push_back(us);
  return out;
}

double Tracer::attributed_share() const {
  const std::vector<std::int64_t> self = self_times(spans_);
  double layers = 0;
  double roots = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == Span::kNoParent) {
      roots += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    } else {
      layers += static_cast<double>(self[i]);
    }
  }
  return roots == 0 ? 0 : layers / roots;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "name\tparent\titem\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << names_[s.name] << '\t'
        << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
        << '\t' << s.item << '\t' << (s.start_ns - t0) << '\t'
        << (s.end_ns - t0) << '\n';
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
