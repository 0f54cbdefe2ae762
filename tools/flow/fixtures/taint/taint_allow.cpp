// Fixture: the suppressed negatives — every sink is justified, so the
// file must come out clean (and the self-test fails if an allow rots).
#include <cstring>
#include <vector>

using Bytes = std::vector<unsigned char>;

Bytes kdf(const Bytes& in);
const char* to_hex(const Bytes& b);

struct Log {
  static void write(int lvl, long now, const char* tag, const char* msg);
};

void justified(const Bytes& dh_secret, const Bytes& packet_icv,
               const unsigned char* wire) {
  Bytes session_key = kdf(dh_secret);
  // hipcheck:allow(flow-taint): fixture — pretend this is a redacted dump
  Log::write(0, 0, "hip", to_hex(session_key));  // hipcheck:expect(eager-log)

  // hipcheck:allow(flow-ct-compare): fixture — length-0 compare, no oracle
  if (std::memcmp(packet_icv.data(), wire, 0) == 0) return;
}
