// LruCache: a map bounded to a capacity that drops its least recently used
// entries first. Not thread-safe: each owner guards it with a mutex.
// Eviction destroys only the cache's copy of a value, so a caller that
// copied out a std::shared_ptr keeps the object alive.

#ifndef PB_COMMON_LRU_CACHE_H_
#define PB_COMMON_LRU_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace pb {

template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  /// The value under `key`, now the most recently used; null when absent.
  /// Valid until the next Put or operator[].
  V* Find(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Stores `value` under `key` as the most recently used entry, then drops
  /// entries beyond capacity: a capacity of 0 stores nothing.
  void Put(const K& key, V value) {
    (*this)[key] = std::move(value);
    Trim(capacity_);
  }

  /// The value under `key`, default-constructed when absent, now the most
  /// recently used. Never drops the returned entry, so the cache keeps at
  /// least one entry whatever its capacity.
  V& operator[](const K& key) {
    if (V* value = Find(key)) return *value;
    order_.emplace_front(key, V());
    index_.emplace(key, order_.begin());
    Trim(std::max<size_t>(capacity_, 1));
    return order_.front().second;
  }

  size_t size() const { return index_.size(); }

 private:
  void Trim(size_t keep) {
    while (index_.size() > keep) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

  size_t capacity_;
  std::list<std::pair<K, V>> order_;  ///< most recently used first
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> index_;
};

}  // namespace pb

#endif  // PB_COMMON_LRU_CACHE_H_
