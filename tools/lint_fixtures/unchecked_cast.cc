// Fixture: the unchecked-cast rule. reinterpret_cast belongs behind the
// validated snapshot loader, nowhere else.
#include <cstdint>

namespace blend {

struct Record {
  uint32_t cell;
  uint32_t table;
};

uint32_t Bad(const uint8_t* bytes) {
  const auto* rec = reinterpret_cast<const Record*>(bytes);  // expect-violation(unchecked-cast)
  return rec->cell;
}

uint32_t Good(const uint8_t* bytes) {
  // memcpy-based reads are always legal and optimize identically.
  uint32_t v;
  __builtin_memcpy(&v, bytes, sizeof(v));
  return v;
}

uint32_t GoodAllowed(const uint8_t* bytes) {
  // blend-lint: allow(unchecked-cast)
  const auto* rec = reinterpret_cast<const Record*>(bytes);
  return rec->table;
}

}  // namespace blend
