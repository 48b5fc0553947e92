#include "datagen/travel.h"

#include "datagen/distributions.h"

namespace pb::datagen {

namespace {

/// Item mix. The hotel threshold is their sum as computed, which is not the
/// double 0.85, and every generated table depends on it.
constexpr double kFlightFraction = 0.45;
constexpr double kHotelFraction = 0.40;

const std::vector<std::string>& Destinations() {
  static const std::vector<std::string> kDestinations = {
      "maui", "cancun", "bali", "fiji", "aruba", "phuket",
  };
  return kDestinations;
}

}  // namespace

db::Table GenerateTravelItems(size_t n, uint64_t seed) {
  db::Schema schema({{"id", db::ValueType::kInt},
                     {"kind", db::ValueType::kString},
                     {"dest", db::ValueType::kString},
                     {"price", db::ValueType::kDouble},
                     {"is_flight", db::ValueType::kInt},
                     {"is_hotel", db::ValueType::kInt},
                     {"is_car", db::ValueType::kInt},
                     {"beach_km", db::ValueType::kDouble},
                     {"comfort", db::ValueType::kDouble}});
  db::Table table("travel_items", std::move(schema));
  table.Reserve(n);
  Rng rng(seed);
  const auto& dests = Destinations();
  for (size_t i = 0; i < n; ++i) {
    double pick = rng.UniformReal(0.0, 1.0);
    std::string kind;
    double price, beach_km = 0.0, comfort;
    if (pick < kFlightFraction) {
      kind = "flight";
      price = RoundTo(ClampedLogNormal(rng, std::log(420.0), 0.5, 90, 2400), 2);
      comfort = RoundTo(ClampedNormal(rng, 3.2, 0.8, 1, 5), 1);
    } else if (pick < kFlightFraction + kHotelFraction) {
      kind = "hotel";
      // Price per stay (multi-night bundle). Beach distance correlates
      // inversely with price: beachfront costs more.
      beach_km =
          RoundTo(ClampedLogNormal(rng, std::log(1.2), 1.0, 0.05, 25), 2);
      double base = 900.0 / (1.0 + beach_km);
      price = RoundTo(ClampedNormal(rng, 280 + base, 140, 60, 2600), 2);
      comfort = RoundTo(ClampedNormal(rng, 3.8, 0.7, 1, 5), 1);
    } else {
      kind = "car";
      price = RoundTo(ClampedNormal(rng, 180, 70, 40, 600), 2);
      comfort = RoundTo(ClampedNormal(rng, 3.0, 0.6, 1, 5), 1);
    }
    table.StartRow()
        .Int(static_cast<int64_t>(i))
        .String(kind)
        .String(dests[rng.Index(dests.size())])
        .Double(price)
        .Int(kind == "flight" ? 1 : 0)
        .Int(kind == "hotel" ? 1 : 0)
        .Int(kind == "car" ? 1 : 0)
        .Double(kind == "hotel" ? beach_km : 0.0)
        .Double(comfort)
        .Finish();
  }
  return table;
}

}  // namespace pb::datagen
