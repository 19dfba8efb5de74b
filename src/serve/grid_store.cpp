#include "serve/grid_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace coopcr::serve {

namespace {

bool summary_equal(const exp::LoadedSummary& a, const exp::LoadedSummary& b) {
  return a.candle.mean == b.candle.mean && a.candle.d1 == b.candle.d1 &&
         a.candle.q1 == b.candle.q1 && a.candle.median == b.candle.median &&
         a.candle.q3 == b.candle.q3 && a.candle.d9 == b.candle.d9 &&
         a.candle.n == b.candle.n && a.se == b.se;
}

/// Content equality of two points on the same cell — a re-emitted artifact
/// covering the same cell is idempotent; diverging content is a conflict.
bool point_equal(const exp::LoadedPoint& a, const exp::LoadedPoint& b) {
  if (a.coords.size() != b.coords.size() ||
      a.strategies.size() != b.strategies.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.coords.size(); ++i) {
    if (a.coords[i].axis != b.coords[i].axis ||
        a.coords[i].value != b.coords[i].value) {
      return false;
    }
  }
  if (!summary_equal(a.baseline_useful, b.baseline_useful) ||
      !summary_equal(a.baseline_useful_energy, b.baseline_useful_energy)) {
    return false;
  }
  for (std::size_t s = 0; s < a.strategies.size(); ++s) {
    const exp::LoadedStrategy& sa = a.strategies[s];
    const exp::LoadedStrategy& sb = b.strategies[s];
    if (sa.name != sb.name || sa.metrics.size() != sb.metrics.size()) {
      return false;
    }
    for (std::size_t m = 0; m < sa.metrics.size(); ++m) {
      if (sa.metrics[m].first != sb.metrics[m].first ||
          !summary_equal(sa.metrics[m].second, sb.metrics[m].second)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::string> strategy_names(const exp::LoadedPoint& point) {
  std::vector<std::string> names;
  names.reserve(point.strategies.size());
  for (const exp::LoadedStrategy& s : point.strategies) {
    names.push_back(s.name);
  }
  return names;
}

std::string cell_label(const exp::LoadedPoint& point) {
  std::ostringstream os;
  for (std::size_t i = 0; i < point.coords.size(); ++i) {
    if (i > 0) os << ", ";
    os << point.coords[i].axis << "=" << point.coords[i].label;
  }
  return os.str();
}

}  // namespace

std::size_t StoredGrid::cell_count() const {
  std::size_t count = 1;
  for (const auto& values : axis_values) count *= values.size();
  return count;
}

std::size_t StoredGrid::point_count() const {
  return static_cast<std::size_t>(
      std::count(filled.begin(), filled.end(), true));
}

bool StoredGrid::complete() const {
  return !cells.empty() && point_count() == cell_count();
}

std::size_t StoredGrid::flat_index(const std::vector<std::size_t>& idx) const {
  COOPCR_CHECK(idx.size() == axes.size(),
               "grid \"" + experiment + "\": cell index arity mismatch");
  std::size_t flat = 0;
  for (std::size_t a = 0; a < idx.size(); ++a) {
    COOPCR_CHECK(idx[a] < axis_values[a].size(),
                 "grid \"" + experiment + "\": axis \"" + axes[a] +
                     "\" index out of range");
    flat = flat * axis_values[a].size() + idx[a];
  }
  return flat;
}

const exp::LoadedPoint& StoredGrid::at(
    const std::vector<std::size_t>& idx) const {
  const std::size_t flat = flat_index(idx);
  COOPCR_CHECK(filled[flat],
               "grid \"" + experiment + "\" has no point at cell " +
                   std::to_string(flat) + " — incomplete ingest");
  return cells[flat];
}

bool GridStore::ingest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  COOPCR_CHECK(in.good(), "cannot open report artifact: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  COOPCR_CHECK(!in.bad(), "error reading report artifact: " + path);
  return ingest_text(buffer.str(), path);
}

bool GridStore::ingest_text(const std::string& text,
                            const std::string& label) {
  const std::uint64_t digest = fnv1a64(text.data(), text.size());
  if (!digests_.insert(digest).second) return false;  // exact duplicate
  merge(exp::parse_report_json(text, label), label);
  return true;
}

std::size_t GridStore::ingest_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  COOPCR_CHECK(fs::is_directory(dir), "not a directory: " + dir);
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::size_t fresh = 0;
  for (const std::string& path : paths) {
    if (ingest_file(path)) ++fresh;
  }
  return fresh;
}

void GridStore::merge(const exp::LoadedReport& report,
                      const std::string& label) {
  StoredGrid* grid = nullptr;
  for (StoredGrid& g : grids_) {
    if (g.experiment == report.name) {
      grid = &g;
      break;
    }
  }
  if (grid == nullptr) {
    grids_.emplace_back();
    grid = &grids_.back();
    grid->experiment = report.name;
    grid->replicas = report.replicas;
    grid->axes = report.axes;
    grid->axis_values.resize(report.axes.size());
  } else {
    COOPCR_CHECK(grid->axes == report.axes,
                 "artifact " + label + ": axes of experiment \"" +
                     report.name + "\" do not match the stored grid");
    COOPCR_CHECK(grid->replicas == report.replicas,
                 "artifact " + label + ": replicas " +
                     std::to_string(report.replicas) +
                     " do not match the stored grid's " +
                     std::to_string(grid->replicas));
  }

  // Validate the incoming points against the grid's shape before touching
  // anything.
  for (const exp::LoadedPoint& point : report.points) {
    for (std::size_t a = 0; a < grid->axes.size(); ++a) {
      COOPCR_CHECK(point.coords[a].axis == grid->axes[a],
                   "artifact " + label + ": point coord order \"" +
                       point.coords[a].axis + "\" != axis \"" +
                       grid->axes[a] + "\"");
    }
    const std::vector<std::string> names = strategy_names(point);
    if (grid->strategies.empty() && grid->cells.empty()) {
      grid->strategies = names;
    } else {
      COOPCR_CHECK(names == grid->strategies,
                   "artifact " + label +
                       ": strategy set differs between grid points of \"" +
                       report.name + "\"");
    }
  }

  // Rebuild the dense index over old + new points (grids are small — tens
  // to hundreds of cells — so a full rebuild per artifact is fine).
  std::vector<exp::LoadedPoint> all;
  for (std::size_t i = 0; i < grid->cells.size(); ++i) {
    if (grid->filled[i]) all.push_back(std::move(grid->cells[i]));
  }
  all.insert(all.end(), report.points.begin(), report.points.end());

  for (std::size_t a = 0; a < grid->axes.size(); ++a) {
    std::vector<double>& values = grid->axis_values[a];
    values.clear();
    for (const exp::LoadedPoint& point : all) {
      values.push_back(point.coords[a].value);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }

  grid->cells.assign(grid->cell_count(), exp::LoadedPoint{});
  grid->filled.assign(grid->cell_count(), false);
  for (exp::LoadedPoint& point : all) {
    std::vector<std::size_t> idx(grid->axes.size());
    for (std::size_t a = 0; a < grid->axes.size(); ++a) {
      const std::vector<double>& values = grid->axis_values[a];
      const auto it = std::lower_bound(values.begin(), values.end(),
                                       point.coords[a].value);
      idx[a] = static_cast<std::size_t>(it - values.begin());
    }
    const std::size_t flat = grid->flat_index(idx);
    if (grid->filled[flat]) {
      COOPCR_CHECK(point_equal(grid->cells[flat], point),
                   "artifact " + label + ": conflicting data for cell [" +
                       cell_label(point) + "] of \"" + report.name + "\"");
      continue;  // idempotent re-emission of the same cell
    }
    grid->cells[flat] = std::move(point);
    grid->filled[flat] = true;
  }
}

const StoredGrid* GridStore::find(const std::string& experiment) const {
  for (const StoredGrid& grid : grids_) {
    if (grid.experiment == experiment) return &grid;
  }
  return nullptr;
}

const StoredGrid& GridStore::sole() const {
  if (grids_.size() == 1) return grids_.front();
  std::string stored;
  for (const StoredGrid& grid : grids_) {
    if (!stored.empty()) stored += ", ";
    stored += "\"" + grid.experiment + "\"";
  }
  throw Error(grids_.empty()
                  ? std::string("the grid store is empty — ingest artifacts "
                                "before querying")
                  : "query names no experiment and the store holds " +
                        std::to_string(grids_.size()) + " grids (" + stored +
                        ") — set \"experiment\"");
}

std::vector<std::string> GridStore::experiments() const {
  std::vector<std::string> names;
  names.reserve(grids_.size());
  for (const StoredGrid& grid : grids_) names.push_back(grid.experiment);
  return names;
}

}  // namespace coopcr::serve
