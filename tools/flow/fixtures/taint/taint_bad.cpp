// Fixture: secret-taint true positives. `session_key` is seeded by its
// byte-buffer declaration + name; `expanded` is tainted by assignment
// propagation from `dh_secret`; `packet_icv` is MAC-shaped material.
#include <cstring>
#include <vector>

using Bytes = std::vector<unsigned char>;

Bytes kdf(const Bytes& in);
const char* to_hex(const Bytes& b);

struct Log {
  static void write(int lvl, long now, const char* tag, const char* msg);
};

void leak_everything(const Bytes& dh_secret, const Bytes& packet_icv,
                     const unsigned char* wire) {
  Bytes session_key = kdf(dh_secret);
  // hipcheck:expect(flow-taint)
  Log::write(0, 0, "hip", to_hex(session_key));  // hipcheck:expect(eager-log)

  Bytes expanded;
  expanded = kdf(dh_secret);
  // hipcheck:expect(flow-taint)
  HIPCLOUD_LOG(0, 0, "hip", to_hex(expanded));

  // hipcheck:expect(flow-ct-compare)
  if (std::memcmp(packet_icv.data(), wire, 12) == 0) return;

  // hipcheck:expect(flow-ct-compare)
  const bool same = session_key == expanded;
  (void)same;
}
