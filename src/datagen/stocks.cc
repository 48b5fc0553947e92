#include "datagen/stocks.h"

#include "datagen/distributions.h"

namespace pb::datagen {

namespace {

constexpr double kTechFraction = 0.35;
constexpr double kShortFraction = 0.5;

const std::vector<std::string>& Sectors() {
  static const std::vector<std::string> kSectors = {
      "tech", "health", "energy", "finance", "consumer", "industrial",
  };
  return kSectors;
}

std::string MakeTicker(Rng& rng, size_t i) {
  std::string t;
  for (int c = 0; c < 3; ++c) {
    t += static_cast<char>('A' + rng.UniformInt(0, 25));
  }
  return t + std::to_string(i % 10);
}

}  // namespace

db::Table GenerateStocks(size_t n, uint64_t seed) {
  db::Schema schema({{"id", db::ValueType::kInt},
                     {"ticker", db::ValueType::kString},
                     {"sector", db::ValueType::kString},
                     {"term", db::ValueType::kString},
                     {"price", db::ValueType::kDouble},
                     {"expected_gain", db::ValueType::kDouble},
                     {"risk", db::ValueType::kDouble},
                     {"is_tech", db::ValueType::kInt},
                     {"is_short", db::ValueType::kInt},
                     {"is_long", db::ValueType::kInt},
                     {"tech_value", db::ValueType::kDouble}});
  db::Table table("stocks", std::move(schema));
  table.Reserve(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    bool tech = rng.Bernoulli(kTechFraction);
    std::string sector =
        tech ? "tech" : Sectors()[1 + rng.Index(Sectors().size() - 1)];
    bool short_term = rng.Bernoulli(kShortFraction);
    // Lot price: a few hundred to a few thousand dollars.
    double price = RoundTo(ClampedLogNormal(rng, std::log(2200.0), 0.8,
                                            200, 20000), 2);
    // Risk in [0.05, 0.6]; expected return correlates with risk (and tech
    // skews both up) — risky lots pay more on average.
    double risk = RoundTo(rng.UniformReal(0.05, tech ? 0.6 : 0.45), 3);
    double annual_return = ClampedNormal(rng, 0.04 + 0.25 * risk,
                                         0.03, -0.05, 0.35);
    double expected_gain = RoundTo(price * annual_return, 2);
    table.StartRow()
        .Int(static_cast<int64_t>(i))
        .String(MakeTicker(rng, i))
        .String(std::move(sector))
        .String(short_term ? "short" : "long")
        .Double(price)
        .Double(expected_gain)
        .Double(risk)
        .Int(tech ? 1 : 0)
        .Int(short_term ? 1 : 0)
        .Int(short_term ? 0 : 1)
        .Double(tech ? price : 0.0)
        .Finish();
  }
  return table;
}

}  // namespace pb::datagen
