// Allocation-free join-key machinery for the hash-join core
// (exec/hash_join.cc):
//
//   * each key is encoded once into the join's append-only KeyArena (the
//     canonical bytes of exec/keys.h, so key equality is byte equality),
//   * the encoded bytes are hashed once to 64 bits (FNV-1a), and
//   * one open-addressing JoinHashTable indexes them, with per-key entry
//     chains threaded through a flat entry vector (no per-row allocation;
//     the arrays are sized once up front).
#ifndef GSOPT_EXEC_HASH_TABLE_H_
#define GSOPT_EXEC_HASH_TABLE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace gsopt::exec {

// Streaming FNV-1a: the key encoders in keys.h can feed it the bytes they
// would otherwise append, hashing a key without building it.
struct KeyHash {
  uint64_t h = 0xcbf29ce484222325ull;  // the published offset basis
  void Byte(char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // the FNV-64 prime
  }
  void Bytes(const void* p, size_t n) {
    const char* s = static_cast<const char*>(p);
    for (size_t i = 0; i < n; ++i) Byte(s[i]);
  }
};

// FNV-1a over the canonical key bytes. Stable across runs, which keeps
// spill partition assignment deterministic for a given input.
inline uint64_t HashKeyBytes(const char* data, size_t len) {
  KeyHash h;
  h.Bytes(data, len);
  return h.h;
}

inline uint64_t HashKeyBytes(const std::string& key) {
  return HashKeyBytes(key.data(), key.size());
}

// Append-only byte storage for encoded keys: one arena per join, appended
// to during the build pass and frozen once the table is built.
class KeyArena {
 public:
  // Appends the bytes and returns their offset. Pointers into the arena
  // are only stable once appending stops; refer to keys by offset until
  // the build pass completes.
  uint64_t Append(const std::string& bytes) {
    uint64_t off = data_.size();
    data_.append(bytes);
    return off;
  }

  const char* At(uint64_t off) const { return data_.data() + off; }
  uint64_t size() const { return data_.size(); }

 private:
  std::string data_;
};

// A join's hash index: open addressing with linear probing over
// power-of-two slots, one slot per distinct key, duplicate keys chained
// through `next`. Equality is hash-then-bytes against the frozen arena.
class JoinHashTable {
 public:
  struct Entry {
    uint64_t hash;
    uint64_t off;   // key bytes: arena.At(off), `len` long
    int64_t row;    // build-side row index
    uint32_t len;
    int32_t next;   // next entry with the same key, -1 at chain end
  };
  static_assert(sizeof(Entry) == 32, "two entries per cache line");

  // Takes the entries and wires slots + duplicate chains. `arena` must
  // outlive the table and stay frozen.
  void Build(std::vector<Entry> entries, const KeyArena& arena) {
    // Slot wiring indexes entries with int32_t (`next`, slots_); a
    // table past INT32_MAX entries would wrap. The memory governor
    // trips far earlier in practice, so this is a structural invariant.
    assert(entries.size() <=
           static_cast<size_t>(std::numeric_limits<int32_t>::max()));
    entries_ = std::move(entries);
    distinct_keys_ = 0;
    max_chain_ = 0;
    slots_.clear();
    if (entries_.empty()) {
      mask_ = 0;
      return;
    }
    uint64_t cap = 16;
    while (cap < 2 * entries_.size()) cap <<= 1;
    mask_ = cap - 1;
    slots_.assign(cap, -1);
    // chain_len[e] = chain length counting from entry e to the tail; a new
    // head extends the old head's chain by one.
    std::vector<uint32_t> chain_len(entries_.size(), 1);
    for (size_t e = 0; e < entries_.size(); ++e) {
      Entry& ent = entries_[e];
      uint64_t slot = ent.hash & mask_;
      for (;;) {
        int32_t head = slots_[slot];
        if (head < 0) {
          ent.next = -1;
          slots_[slot] = static_cast<int32_t>(e);
          ++distinct_keys_;
          if (max_chain_ < 1) max_chain_ = 1;
          break;
        }
        const Entry& h = entries_[static_cast<size_t>(head)];
        if (h.hash == ent.hash && KeysEqual(h, ent, arena)) {
          ent.next = head;
          slots_[slot] = static_cast<int32_t>(e);
          chain_len[e] = chain_len[static_cast<size_t>(head)] + 1;
          if (chain_len[e] > max_chain_) max_chain_ = chain_len[e];
          break;
        }
        slot = (slot + 1) & mask_;
      }
    }
  }

  // Head entry index for the key, or -1.
  int32_t Find(uint64_t hash, const char* key, uint32_t len,
               const KeyArena& arena) const {
    if (slots_.empty()) return -1;
    uint64_t slot = hash & mask_;
    for (;;) {
      int32_t head = slots_[slot];
      if (head < 0) return -1;
      const Entry& h = entries_[static_cast<size_t>(head)];
      if (h.hash == hash && h.len == len &&
          std::memcmp(arena.At(h.off), key, len) == 0) {
        return head;
      }
      slot = (slot + 1) & mask_;
    }
  }

  const Entry& entry(int32_t i) const {
    return entries_[static_cast<size_t>(i)];
  }

  uint64_t num_entries() const { return entries_.size(); }
  uint64_t distinct_keys() const { return distinct_keys_; }
  // Longest duplicate chain (the max_bucket stat).
  uint64_t max_chain() const { return max_chain_; }

 private:
  bool KeysEqual(const Entry& a, const Entry& b,
                 const KeyArena& arena) const {
    return a.len == b.len &&
           std::memcmp(arena.At(a.off), arena.At(b.off), a.len) == 0;
  }

  std::vector<Entry> entries_;
  std::vector<int32_t> slots_;
  uint64_t mask_ = 0;
  uint64_t distinct_keys_ = 0;
  uint32_t max_chain_ = 0;
};

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_HASH_TABLE_H_
