// Output checks shared by the workloads.
#pragma once

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "base/rate.hpp"
#include "core/maxmin.hpp"

namespace perfbench {

template <class... Args>
std::string fmt(const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

/// Every session's rate against the centralized solution `sol` of
/// `specs`, relative tolerance kRateCheckEps.  `rate_of` returns
/// std::optional<Rate> (nullopt: never notified).  Empty when all match.
template <class RateOf>
std::string check_rates(const std::vector<bneck::core::SessionSpec>& specs,
                        const bneck::core::MaxMinSolution& sol,
                        RateOf rate_of) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::optional<bneck::Rate> got = rate_of(specs[i].id);
    const bneck::Rate want = sol.rates[i];
    if (!got) return fmt("session %d has no rate", specs[i].id.value());
    if (!(std::abs(*got - want) <= bneck::kRateCheckEps * std::abs(want))) {
      return fmt("session %d at %.12g, solver says %.12g",
                 specs[i].id.value(), *got, want);
    }
  }
  return {};
}

}  // namespace perfbench
