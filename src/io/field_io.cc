#include "io/field_io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/assert.h"

namespace abp {

namespace {

// Hostile-input ceiling: ids drive a slot-vector resize, so absurd values
// must be rejected before any allocation happens (`Lattice2D` caps the
// lattice a survey's bounds and step ask for). The id cap matches the
// writer's runaway-scan guard.
constexpr BeaconId kMaxBeaconId = 100000000u;

void write_double(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

[[noreturn]] void malformed(const std::string& what) { throw IoError(what); }

std::string next_line(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    // Skip blank lines and comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return line;
  }
  return {};
}

/// Require that `is` parsed successfully and has nothing but whitespace
/// left — trailing junk on a record is as suspect as a missing token.
bool fully_consumed(std::istringstream& is) {
  if (is.fail()) return false;
  std::string rest;
  is >> rest;
  return rest.empty();
}

double finite_or_throw(double v, const std::string& line) {
  if (!std::isfinite(v)) malformed("non-finite number in record: " + line);
  return v;
}

AABB parse_bounds(const std::string& line) {
  if (line.empty()) malformed("truncated input: missing bounds record");
  std::istringstream is(line);
  std::string tag;
  double x0, y0, x1, y1;
  is >> tag >> x0 >> y0 >> x1 >> y1;
  if (!fully_consumed(is) || tag != "bounds") {
    malformed("expected 'bounds x0 y0 x1 y1', got: " + line);
  }
  finite_or_throw(x0, line);
  finite_or_throw(y0, line);
  finite_or_throw(x1, line);
  finite_or_throw(y1, line);
  if (x0 > x1 || y0 > y1) malformed("inverted bounds: " + line);
  return AABB({x0, y0}, {x1, y1});
}

}  // namespace

void write_field(std::ostream& out, const BeaconField& field) {
  out << "abp-field 1\n";
  out << "bounds ";
  write_double(out, field.bounds().lo.x);
  out << ' ';
  write_double(out, field.bounds().lo.y);
  out << ' ';
  write_double(out, field.bounds().hi.x);
  out << ' ';
  write_double(out, field.bounds().hi.y);
  out << '\n';
  out << "next-id " << field.next_id() << '\n';
  // Live beacons (including passive ones), ascending id. `get` is the only
  // way to see passive beacons, so scan ids until all live ones are found;
  // ids are dense up to the allocation high-water mark.
  std::vector<Beacon> live;
  for (BeaconId id = 0; live.size() < field.size(); ++id) {
    ABP_CHECK(id < kMaxBeaconId, "runaway id scan");
    if (const auto b = field.get(id)) live.push_back(*b);
  }
  for (const Beacon& b : live) {
    out << "beacon " << b.id << ' ';
    write_double(out, b.pos.x);
    out << ' ';
    write_double(out, b.pos.y);
    out << ' ' << (b.active ? 1 : 0) << '\n';
  }
}

BeaconField read_field(std::istream& in) {
  const std::string header = next_line(in);
  if (header.rfind("abp-field 1", 0) != 0) {
    malformed("not an abp-field version-1 stream");
  }
  BeaconField field(parse_bounds(next_line(in)));
  BeaconId next_id = 0;
  bool saw_next_id = false;
  std::string line;
  while (!(line = next_line(in)).empty()) {
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "next-id") {
      is >> next_id;
      if (!fully_consumed(is)) malformed("malformed next-id record: " + line);
      if (next_id > kMaxBeaconId) {
        malformed("next-id exceeds the id ceiling: " + line);
      }
      saw_next_id = true;
      continue;
    }
    if (tag != "beacon") malformed("unexpected record: " + line);
    BeaconId id;
    double x, y;
    int active;
    is >> id >> x >> y >> active;
    if (!fully_consumed(is)) malformed("malformed beacon record: " + line);
    if (id >= kMaxBeaconId) malformed("beacon id exceeds the ceiling: " + line);
    if (id < field.next_id()) {
      malformed("duplicate or out-of-order beacon id: " + line);
    }
    finite_or_throw(x, line);
    finite_or_throw(y, line);
    if (!field.bounds().contains({x, y})) {
      malformed("beacon position outside bounds: " + line);
    }
    if (active != 0 && active != 1) {
      malformed("beacon active flag must be 0 or 1: " + line);
    }
    field.add_with_id(id, {x, y}, active != 0);
  }
  if (saw_next_id) field.reserve_ids(next_id);
  return field;
}

void write_survey(std::ostream& out, const SurveyData& survey) {
  const Lattice2D& lattice = survey.lattice();
  out << "abp-survey 1\n";
  out << "bounds ";
  write_double(out, lattice.bounds().lo.x);
  out << ' ';
  write_double(out, lattice.bounds().lo.y);
  out << ' ';
  write_double(out, lattice.bounds().hi.x);
  out << ' ';
  write_double(out, lattice.bounds().hi.y);
  out << '\n';
  out << "step ";
  write_double(out, lattice.step());
  out << '\n';
  for (std::size_t flat = 0; flat < lattice.size(); ++flat) {
    if (!survey.measured(flat)) continue;
    out << "point " << flat << ' ';
    write_double(out, survey.value(flat));
    out << '\n';
  }
}

SurveyData read_survey(std::istream& in) {
  const std::string header = next_line(in);
  if (header.rfind("abp-survey 1", 0) != 0) {
    malformed("not an abp-survey version-1 stream");
  }
  const AABB bounds = parse_bounds(next_line(in));
  const std::string step_line = next_line(in);
  if (step_line.empty()) malformed("truncated input: missing step record");
  std::istringstream step_is(step_line);
  std::string tag;
  double step;
  step_is >> tag >> step;
  if (!fully_consumed(step_is) || tag != "step") {
    malformed("expected 'step <meters>', got: " + step_line);
  }
  finite_or_throw(step, step_line);
  if (step <= 0.0) malformed("step must be positive: " + step_line);
  SurveyData survey = [&] {
    try {
      return SurveyData{Lattice2D(bounds, step)};
    } catch (const CheckFailure& e) {
      malformed(std::string("invalid survey geometry: ") + e.what());
    }
  }();
  std::string line;
  while (!(line = next_line(in)).empty()) {
    std::istringstream is(line);
    std::size_t flat;
    double value;
    is >> tag >> flat >> value;
    if (!fully_consumed(is) || tag != "point") {
      malformed("malformed point record: " + line);
    }
    if (flat >= survey.lattice().size()) {
      malformed("point index out of range: " + line);
    }
    finite_or_throw(value, line);
    survey.record(flat, value);
  }
  return survey;
}

void save_field(const std::string& path, const BeaconField& field) {
  std::ofstream out(path);
  if (!out.good()) throw IoError("cannot open for writing: " + path);
  write_field(out, field);
  if (!out.good()) throw IoError("write failed: " + path);
}

BeaconField load_field(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw IoError("cannot open for reading: " + path);
  return read_field(in);
}

void save_survey(const std::string& path, const SurveyData& survey) {
  std::ofstream out(path);
  if (!out.good()) throw IoError("cannot open for writing: " + path);
  write_survey(out, survey);
  if (!out.good()) throw IoError("write failed: " + path);
}

SurveyData load_survey(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw IoError("cannot open for reading: " + path);
  return read_survey(in);
}

}  // namespace abp
