#include "exec/bloom.h"

namespace gsopt::exec {

uint64_t BloomFilter::BlocksFor(int64_t expected_keys) {
  uint64_t keys = expected_keys > 0 ? static_cast<uint64_t>(expected_keys) : 1;
  uint64_t bits = keys * kBitsPerKey;
  uint64_t want = (bits + kBitsPerBlock - 1) / kBitsPerBlock;
  uint64_t blocks = 1;
  while (blocks < want && blocks < kMaxBlocks) blocks <<= 1;
  return blocks;
}

uint64_t BloomFilter::BytesFor(int64_t expected_keys) {
  return BlocksFor(expected_keys) * kWordsPerBlock * sizeof(uint64_t);
}

void BloomFilter::Init(int64_t expected_keys) {
  uint64_t blocks = BlocksFor(expected_keys);
  words_.assign(blocks * kWordsPerBlock, 0);
  block_mask_ = blocks - 1;
}

}  // namespace gsopt::exec
