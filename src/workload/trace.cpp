#include "workload/trace.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace dl2f::workload {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("trace line " + std::to_string(line_no) + ": " + what);
}

/// Parse one signed integer field; rejects trailing junk inside the token.
std::int64_t parse_int(std::size_t line_no, const std::string& token, const char* field) {
  std::size_t used = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(token, &used);
  } catch (const std::exception&) {
    fail(line_no, std::string("expected integer for ") + field + ", got '" + token + "'");
  }
  if (used != token.size()) {
    fail(line_no, std::string("trailing characters in ") + field + " '" + token + "'");
  }
  return value;
}

/// parse_int for the 32-bit fields: rejects a value outside int32 before
/// narrowing, so an oversized token cannot wrap into a valid one.
std::int32_t parse_int32(std::size_t line_no, const std::string& token, const char* field) {
  const std::int64_t value = parse_int(line_no, token, field);
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    fail(line_no, std::string(field) + " '" + token + "' out of 32-bit range");
  }
  return static_cast<std::int32_t>(value);
}

bool is_blank_or_comment(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first == std::string::npos || line[first] == '#';
}

std::string strip_cr(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

}  // namespace

std::vector<TraceRecord> parse_trace(std::istream& in, const MeshShape* shape) {
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  noc::Cycle prev_cycle = 0;

  while (std::getline(in, line)) {
    ++line_no;
    line = strip_cr(line);
    if (is_blank_or_comment(line)) continue;

    if (!saw_header) {
      if (line != kTraceHeaderV1) {
        fail(line_no, "expected header '" + std::string(kTraceHeaderV1) + "', got '" + line + "'");
      }
      saw_header = true;
      continue;
    }

    std::istringstream fields(line);
    std::string cycle_s, src_s, dst_s, kind_s, size_s, extra;
    if (!(fields >> cycle_s >> src_s >> dst_s >> kind_s >> size_s)) {
      fail(line_no, "expected 5 fields '<cycle> <src> <dst> <REQ|REPLY> <size>', got '" + line +
                        "'");
    }
    if (fields >> extra) fail(line_no, "unexpected trailing field '" + extra + "'");

    TraceRecord rec;
    rec.cycle = parse_int(line_no, cycle_s, "cycle");
    rec.src = parse_int32(line_no, src_s, "src");
    rec.dst = parse_int32(line_no, dst_s, "dst");
    if (kind_s == "REQ") {
      rec.kind = TraceKind::Request;
    } else if (kind_s == "REPLY") {
      rec.kind = TraceKind::Reply;
    } else {
      fail(line_no, "unknown kind '" + kind_s + "' (expected REQ or REPLY)");
    }
    rec.size_flits = parse_int32(line_no, size_s, "size");

    if (rec.cycle < 0) fail(line_no, "negative cycle");
    if (rec.size_flits <= 0) fail(line_no, "size must be >= 1 flit");
    if (shape != nullptr) {
      if (!shape->valid(rec.src)) fail(line_no, "src " + src_s + " outside the mesh");
      if (!shape->valid(rec.dst)) fail(line_no, "dst " + dst_s + " outside the mesh");
    }
    if (rec.src == rec.dst) fail(line_no, "src == dst (self-addressed packet)");
    if (!records.empty() && rec.cycle < prev_cycle) {
      fail(line_no, "cycle " + cycle_s + " out of order (previous record at cycle " +
                        std::to_string(prev_cycle) + ")");
    }
    prev_cycle = rec.cycle;
    records.push_back(rec);
  }
  if (!saw_header) fail(line_no == 0 ? 1 : line_no, "empty trace: missing header");
  return records;
}

std::vector<TraceRecord> load_trace(const std::string& path, const MeshShape* shape) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("trace file '" + path + "': cannot open");
  try {
    return parse_trace(in, shape);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("trace file '" + path + "': " + e.what());
  }
}

void write_trace(std::ostream& out, const std::vector<TraceRecord>& records) {
  out << kTraceHeaderV1 << '\n';
  for (const auto& r : records) {
    out << r.cycle << ' ' << r.src << ' ' << r.dst << ' ' << to_string(r.kind) << ' '
        << r.size_flits << '\n';
  }
}

VectorTraceSource::VectorTraceSource(std::vector<TraceRecord> records, noc::Cycle loop_period)
    : records_(std::move(records)), loop_period_(loop_period) {
  assert(std::is_sorted(records_.begin(), records_.end(),
                        [](const auto& a, const auto& b) { return a.cycle < b.cycle; }));
  assert(loop_period_ == 0 || records_.empty() || loop_period_ > records_.back().cycle);
}

bool VectorTraceSource::next(TraceRecord& out) {
  if (records_.empty()) return false;
  if (pos_ == records_.size()) {
    if (loop_period_ <= 0) return false;
    pos_ = 0;
    ++pass_;
  }
  out = records_[pos_++];
  out.cycle += pass_ * loop_period_;
  return true;
}

bool GeneratedTraceSource::next(TraceRecord& out) {
  // Generated sources are infinite, but a cycle may yield no events; bound
  // the catch-up loop so a zero-rate config cannot spin forever.
  constexpr int kMaxEmptyCycles = 1 << 20;
  int empty = 0;
  while (buffer_.empty()) {
    scratch_.clear();
    generate_cycle(next_cycle_++, scratch_);
    buffer_.insert(buffer_.end(), scratch_.begin(), scratch_.end());
    if (scratch_.empty() && ++empty >= kMaxEmptyCycles) return false;
  }
  out = buffer_.front();
  buffer_.pop_front();
  return true;
}

BurstyTraceSource::BurstyTraceSource(const Config& cfg, std::uint64_t seed)
    : cfg_(cfg), quiet_rate_(cfg.quiet_rate), burst_rate_(cfg.burst_rate),
      clients_(client_nodes(cfg.mesh, cfg.servers)), rng_(seed) {
  assert(!cfg_.servers.empty());
  assert(cfg_.quiet_cycles + cfg_.burst_cycles > 0);
}

void BurstyTraceSource::generate_cycle(noc::Cycle cycle, std::vector<TraceRecord>& out) {
  const noc::Cycle period = cfg_.quiet_cycles + cfg_.burst_cycles;
  const bool burst = (cycle % period) >= cfg_.quiet_cycles;
  const BernoulliP rate = burst ? burst_rate_ : quiet_rate_;
  for (const NodeId client : clients_) {
    if (!rng_.bernoulli(rate)) continue;
    const auto pick = rng_.uniform_int(0, static_cast<std::int64_t>(cfg_.servers.size()) - 1);
    out.push_back(TraceRecord{cycle, client, cfg_.servers[static_cast<std::size_t>(pick)],
                              TraceKind::Request, cfg_.request_flits});
  }
}

MarkovOnOffTraceSource::MarkovOnOffTraceSource(const Config& cfg, std::uint64_t seed)
    : cfg_(cfg), p_on_(cfg.p_on), p_off_(cfg.p_off), on_rate_(cfg.on_rate),
      clients_(client_nodes(cfg.mesh, cfg.servers)), rng_(seed) {
  assert(!cfg_.servers.empty());
  on_.assign(clients_.size(), 0);
}

void MarkovOnOffTraceSource::generate_cycle(noc::Cycle cycle, std::vector<TraceRecord>& out) {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (on_[i] == 0) {
      if (rng_.bernoulli(p_on_)) on_[i] = 1;
    } else if (rng_.bernoulli(p_off_)) {
      on_[i] = 0;
    }
    if (on_[i] == 0 || !rng_.bernoulli(on_rate_)) continue;
    const auto pick = rng_.uniform_int(0, static_cast<std::int64_t>(cfg_.servers.size()) - 1);
    out.push_back(TraceRecord{cycle, clients_[i], cfg_.servers[static_cast<std::size_t>(pick)],
                              TraceKind::Request, cfg_.request_flits});
  }
}

std::vector<NodeId> corner_servers(const MeshShape& mesh) {
  std::vector<NodeId> servers{mesh.id_of({0, 0}), mesh.id_of({mesh.cols() - 1, 0}),
                              mesh.id_of({0, mesh.rows() - 1}),
                              mesh.id_of({mesh.cols() - 1, mesh.rows() - 1})};
  std::sort(servers.begin(), servers.end());
  servers.erase(std::unique(servers.begin(), servers.end()), servers.end());
  return servers;
}

std::vector<NodeId> client_nodes(const MeshShape& mesh, const std::vector<NodeId>& servers) {
  std::vector<NodeId> clients;
  clients.reserve(static_cast<std::size_t>(mesh.node_count()));
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    if (std::find(servers.begin(), servers.end(), id) == servers.end()) clients.push_back(id);
  }
  return clients;
}

}  // namespace dl2f::workload
