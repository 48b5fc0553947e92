// Stock dataset generator — the investment-portfolio scenario from the
// paper's introduction: "The client has a budget of $50K, wants to invest
// at least 30% of the assets in technology, and wants a balance of
// short-term and long-term options."
//
// Schema:
//   id INT, ticker STRING, sector STRING, term STRING('short'|'long'),
//   price DOUBLE (lot price), expected_gain DOUBLE (dollar gain per lot),
//   risk DOUBLE, is_tech INT, is_short INT, is_long INT,
//   tech_value DOUBLE (== price for tech lots, 0 otherwise)
//
// The indicator/derived columns make the paper's constraints linear:
//   SUM(price) <= 50000, SUM(tech_value) >= 15000,
//   SUM(is_short) - SUM(is_long) BETWEEN -2 AND 2,
//   MAXIMIZE SUM(expected_gain).
//
// Each lot is tech with probability 0.35 and short-term with 0.5.

#ifndef PB_DATAGEN_STOCKS_H_
#define PB_DATAGEN_STOCKS_H_

#include <cstdint>

#include "db/table.h"

namespace pb::datagen {

/// Generates `n` stock lots with the given seed.
db::Table GenerateStocks(size_t n, uint64_t seed);

}  // namespace pb::datagen

#endif  // PB_DATAGEN_STOCKS_H_
