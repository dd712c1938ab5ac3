#include "harness/shard.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sys/json.hpp"
#include "sys/rng.hpp"

namespace dnnd::harness {

namespace fs = std::filesystem;

ShardSpec parse_shard_spec(const std::string& spec) {
  // "k/n", both strictly positive decimals, k <= n. Anything else -- empty
  // pieces, signs, trailing garbage, k = 0 -- is a usage error: a silently
  // misparsed shard spec would drop or duplicate grid cells.
  const auto slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size()) {
    throw std::invalid_argument("shard spec must be k/n (e.g. 2/4): \"" + spec + "\"");
  }
  auto parse_positive = [&](const std::string& text) -> usize {
    if (text.empty() || text.size() > 6) {
      throw std::invalid_argument("bad shard spec number \"" + text + "\" in \"" + spec + "\"");
    }
    usize value = 0;
    for (const char c : text) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        throw std::invalid_argument("bad shard spec number \"" + text + "\" in \"" + spec +
                                    "\"");
      }
      value = value * 10 + static_cast<usize>(c - '0');
    }
    if (value == 0) {
      throw std::invalid_argument("shard spec numbers are 1-based, got 0 in \"" + spec + "\"");
    }
    return value;
  };
  const usize k = parse_positive(spec.substr(0, slash));
  const usize n = parse_positive(spec.substr(slash + 1));
  if (k > n) {
    throw std::invalid_argument("shard index " + std::to_string(k) + " exceeds shard count " +
                                std::to_string(n) + " in \"" + spec + "\"");
  }
  return ShardSpec{.index = k - 1, .count = n};
}

std::vector<Scenario> shard_scenarios(const std::vector<Scenario>& scenarios,
                                      const ShardSpec& shard) {
  if (shard.count == 0 || shard.index >= shard.count) {
    throw std::invalid_argument("invalid ShardSpec " + std::to_string(shard.index) + "/" +
                                std::to_string(shard.count));
  }
  std::vector<Scenario> out;
  out.reserve((scenarios.size() + shard.count - 1) / shard.count);
  for (usize i = shard.index; i < scenarios.size(); i += shard.count) {
    out.push_back(scenarios[i]);
  }
  return out;
}

CellCheckpointStore::CellCheckpointStore(std::string run_dir)
    : run_dir_(std::move(run_dir)), cells_dir_((fs::path(run_dir_) / "cells").string()) {}

std::string CellCheckpointStore::cell_path(const std::string& id) const {
  // Sanitized id for readability, plus the 64-bit stable id hash so ids that
  // sanitize to the same text ("a/b" vs "a_b") still claim distinct files.
  std::string name;
  name.reserve(id.size() + 20);
  for (const char c : id) {
    const bool keep = std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-' ||
                      c == '_';
    name += keep ? c : '_';
  }
  char hash[20];
  std::snprintf(hash, sizeof(hash), "-%016llx",
                static_cast<unsigned long long>(sys::stable_hash64(id)));
  return (fs::path(cells_dir_) / (name + hash + ".json")).string();
}

void CellCheckpointStore::write_cell(const ScenarioResult& r) const {
  std::error_code ec;
  fs::create_directories(cells_dir_, ec);
  if (ec) {
    throw std::runtime_error("cannot create cell directory " + cells_dir_ + ": " +
                             ec.message());
  }
  sys::JsonWriter w;
  scenario_result_to_json(w, r);
  const std::string text = w.str() + "\n";

  // Atomic publish: a cell file either does not exist or is complete. The
  // temp name carries the pid so concurrent processes resuming the same
  // cell never share a temp file; rename() replaces atomically (last
  // complete writer wins, which is fine -- cell results are deterministic).
  const std::string final_path = cell_path(r.id);
  const std::string tmp_path = final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp_path + " for writing");
    out << text;
    out.flush();
    if (!out) {
      fs::remove(tmp_path, ec);
      throw std::runtime_error("write failed: " + tmp_path);
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    throw std::runtime_error("cannot publish cell " + final_path + ": " + ec.message());
  }
}

std::optional<ScenarioResult> CellCheckpointStore::load_cell(const std::string& id) const {
  const std::string path = cell_path(id);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  ScenarioResult r = scenario_result_from_json(sys::parse_json(ss.str()),
                                               /*expect_timing=*/false, "cell file " + path);
  if (r.id != id) {
    throw std::runtime_error("cell file " + path + " carries id \"" + r.id +
                             "\", expected \"" + id + "\"");
  }
  return r;
}

bool CellCheckpointStore::has_valid_cell(const std::string& id) const {
  try {
    return load_cell(id).has_value();
  } catch (const std::exception&) {
    // Malformed or mis-labelled checkpoint: treat as absent so a resume
    // re-runs the cell instead of wedging the whole shard. merge_cells
    // still surfaces the corruption if the re-run never happens.
    return false;
  }
}

std::vector<Scenario> pending_scenarios(const CellCheckpointStore& store,
                                        const std::vector<Scenario>& scenarios) {
  std::vector<Scenario> out;
  for (const auto& sc : scenarios) {
    if (!store.has_valid_cell(sc.id)) out.push_back(sc);
  }
  return out;
}

MergedCampaign merge_cells(const CellCheckpointStore& store,
                           const std::vector<Scenario>& scenarios) {
  // Reassemble the single-process document from the checkpoint files'
  // parsed JsonValues: the parser preserves numeric lexemes, so every
  // scalar lands in the merged document with the exact bytes the worker's
  // to_json produced -- no second float format/parse cycle anywhere.
  std::string missing;
  usize missing_count = 0;
  std::string body;
  for (const auto& sc : scenarios) {
    const std::string path = store.cell_path(sc.id);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      ++missing_count;
      missing += "\n  " + sc.id;
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const sys::JsonValue cell = sys::parse_json(ss.str());
    // Validate shape and id before splicing the raw dump into the document.
    const ScenarioResult r =
        scenario_result_from_json(cell, /*expect_timing=*/false, "cell file " + path);
    if (r.id != sc.id) {
      throw std::runtime_error("cell file " + path + " carries id \"" + r.id +
                               "\", expected \"" + sc.id + "\"");
    }
    if (!body.empty()) body += ",";
    body += cell.dump();
  }
  if (missing_count > 0) {
    throw std::runtime_error("incomplete run: " + std::to_string(missing_count) + " of " +
                             std::to_string(scenarios.size()) +
                             " cells missing from " + store.run_dir() +
                             " (run the remaining shards or --resume):" + missing);
  }

  MergedCampaign merged;
  merged.json = "{\"scenarios\":[" + body + "]}";
  merged.campaign = campaign_from_json(merged.json);
  return merged;
}

}  // namespace dnnd::harness
