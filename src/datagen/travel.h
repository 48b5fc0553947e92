// Travel dataset generator — the vacation-planner scenario from the paper's
// introduction: "A couple wants to organize a relaxing vacation at a
// tropical destination. They do not want to spend more than $2,000 on
// flights and hotels combined. They also want to be in walking distance
// from the beach, unless their budget can fit a rental car."
//
// Packages are built over one denormalized `travel_items` relation with
// 0/1 indicator columns (is_flight / is_hotel / is_car) so PaQL's linear
// aggregates can express "exactly 2 flights and 1 hotel" as
// SUM(is_flight) = 2 AND SUM(is_hotel) = 1. The beach-vs-car tradeoff is a
// genuinely disjunctive global constraint — it exercises the engine's
// non-ILP fallback path.
//
// Schema:
//   id INT, kind STRING('flight'|'hotel'|'car'), dest STRING,
//   price DOUBLE, is_flight INT, is_hotel INT, is_car INT,
//   beach_km DOUBLE (hotels; 0 for others), comfort DOUBLE
//
// Each item is a flight with probability 0.45, a hotel with 0.40 and a car
// otherwise, at one of six destinations.

#ifndef PB_DATAGEN_TRAVEL_H_
#define PB_DATAGEN_TRAVEL_H_

#include <cstdint>

#include "db/table.h"

namespace pb::datagen {

/// Generates `n` travel items with the given seed.
db::Table GenerateTravelItems(size_t n, uint64_t seed);

}  // namespace pb::datagen

#endif  // PB_DATAGEN_TRAVEL_H_
