#include "serve/query.hpp"

#include <algorithm>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace coopcr::serve {

namespace {

void render_estimate(std::ostream& os, const StrategyEstimate& e) {
  os << "{\"strategy\":\"" << json_escape(e.strategy)
     << "\",\"value\":" << format_number(e.value)
     << ",\"se\":" << format_number(e.se)
     << ",\"ci_halfwidth\":" << format_number(e.ci_halfwidth);
}

}  // namespace

AdvisorQuery AdvisorQuery::from_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const Error& e) {
    throw Error(std::string("bad advisor query: ") + e.what());
  }
  COOPCR_CHECK(doc.is_object(), "bad advisor query: document is not an object");
  AdvisorQuery query;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "experiment") {
      query.experiment = value.as_string();
    } else if (key == "metric") {
      query.metric = value.as_string();
    } else if (key == "coords") {
      for (const auto& [axis, coord] : value.as_object()) {
        query.coords.emplace_back(axis, coord.as_double());
      }
    } else {
      throw Error("bad advisor query: unknown member \"" + key + "\"");
    }
  }
  COOPCR_CHECK(!query.coords.empty(),
               "bad advisor query: no \"coords\" member (or it is empty)");
  for (std::size_t i = 0; i < query.coords.size(); ++i) {
    for (std::size_t j = i + 1; j < query.coords.size(); ++j) {
      COOPCR_CHECK(query.coords[i].first != query.coords[j].first,
                   "bad advisor query: duplicate coord \"" +
                       query.coords[i].first + "\"");
    }
  }
  return query;
}

std::string AdvisorQuery::canonical() const {
  std::vector<std::pair<std::string, double>> sorted = coords;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Every name is a quoted, escaped JSON string, so no separator inside a
  // member can pass for the boundary between two members.
  std::ostringstream os;
  os << "{\"experiment\":\"" << json_escape(experiment) << "\",\"metric\":\""
     << json_escape(metric) << "\",\"coords\":{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(sorted[i].first)
       << "\":" << format_number(sorted[i].second);
  }
  os << "}}";
  return os.str();
}

const StrategyEstimate& AdvisorAnswer::best() const {
  COOPCR_CHECK(!ranking.empty(), "advisor answer has an empty ranking");
  return ranking.front();
}

std::string AdvisorAnswer::to_json() const {
  std::ostringstream os;
  os << "{\"answer_version\":" << kAnswerVersion << ",\"experiment\":\""
     << json_escape(experiment) << "\",\"metric\":\"" << json_escape(metric)
     << "\",\"coords\":{";
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(coords[i].first)
       << "\":" << format_number(coords[i].second);
  }
  os << "},\"source\":\"" << json_escape(source) << "\",\"backend\":\""
     << json_escape(backend) << "\",\"higher_is_better\":"
     << (higher_is_better ? "true" : "false") << ",\"best\":";
  render_estimate(os, best());
  os << ",\"periods\":[";
  for (std::size_t i = 0; i < best_periods.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"app\":\"" << json_escape(best_periods[i].app)
       << "\",\"seconds\":" << format_number(best_periods[i].seconds) << "}";
  }
  os << "]},\"ranking\":[";
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (i > 0) os << ",";
    render_estimate(os, ranking[i]);
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace coopcr::serve
