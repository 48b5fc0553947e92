// Tuple: one row of Values. Tuples are positional; the Schema gives names.

#ifndef PB_DB_TUPLE_H_
#define PB_DB_TUPLE_H_

#include <vector>

#include "db/value.h"

namespace pb::db {

using Tuple = std::vector<Value>;

}  // namespace pb::db

#endif  // PB_DB_TUPLE_H_
