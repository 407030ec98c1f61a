// daemon_mixed: the seeded request stream the clients send to mrmcheckd.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "obs/json.hpp"

namespace perfbench {

/// One request of the stream. Reads check a resident model; writes load a
/// seeded random model (cold: the LRU evicted it since its last load) and
/// then check it.
struct DaemonRequest {
  bool write = false;
  std::size_t query = 0;        // read: index into the read catalogue
  std::size_t random = 0;       // write: index into the random-model pool
  std::vector<double> thresholds;
};

/// The deterministic request stream of one seed. Request i depends only on
/// (seed, i): every `write_every`-th request is a write, cycling through the
/// random pool; reads visit the resident models in seeded per-round
/// permutations, so each is touched every few requests and the LRU evicts
/// random models, never a resident one.
class DaemonStream {
 public:
  static constexpr std::size_t kWriteEvery = 5;
  static constexpr std::size_t kRandomPool = 16;

  DaemonStream(std::uint64_t seed, Catalogue reads);

  DaemonRequest at(std::size_t index) const;
  /// The formula batch a request checks.
  QuerySpec query(const DaemonRequest& request) const;
  /// The check op sent for a request.
  csrlmrm::obs::JsonValue check_request(const DaemonRequest& request) const;
  /// The load op for the model a request checks, read from the files the
  /// set-up saved under `dir` (a write sends it first; a read sends it when
  /// its model was evicted).
  csrlmrm::obs::JsonValue load_request(const DaemonRequest& request,
                                       const std::string& dir) const;

  /// The random model source of pool entry j ("random:<seed>").
  std::string random_source(std::size_t j) const;
  /// The check batch sent for pool entry j (fixed per entry, so the
  /// expected reply is computed once in-process).
  QuerySpec random_query(std::size_t j) const;
  std::vector<double> random_thresholds(std::size_t j) const;

 private:
  std::uint64_t seed_;
  Catalogue reads_;
};

}  // namespace perfbench
