// Recipe dataset generator — the meal-planner workload from the paper's
// introduction and demo scenario ("Meal planner has a rich recipe data set
// scrapped from online recipe and nutrition websites"; we substitute a
// seeded synthetic equivalent with realistic marginals, so every run and
// test sees the same rows without shipping scraped data).
//
// Schema:
//   id INT, name STRING, cuisine STRING, gluten STRING('free'|'full'),
//   calories DOUBLE, protein DOUBLE, fat DOUBLE, carbs DOUBLE,
//   sugar DOUBLE, sodium DOUBLE, cost DOUBLE, rating DOUBLE

#ifndef PB_DATAGEN_RECIPES_H_
#define PB_DATAGEN_RECIPES_H_

#include <cstdint>

#include "db/table.h"

namespace pb::datagen {

struct RecipeOptions {
  /// Fraction of gluten-free recipes (the paper's base-constraint
  /// selectivity knob).
  double gluten_free_fraction = 0.5;
};

/// Generates `n` recipes with the given seed.
db::Table GenerateRecipes(size_t n, uint64_t seed,
                          const RecipeOptions& options = {});

}  // namespace pb::datagen

#endif  // PB_DATAGEN_RECIPES_H_
