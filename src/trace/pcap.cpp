#include "trace/pcap.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace fpsq::trace {

namespace {

constexpr std::uint32_t kMagicUsec = 0xA1B2C3D4;
constexpr std::uint32_t kMagicNsec = 0xA1B23C4D;
constexpr std::uint32_t kMagicUsecSwapped = 0xD4C3B2A1;
constexpr std::uint32_t kMagicNsecSwapped = 0x4D3CB2A1;

constexpr std::uint32_t kLinkEthernet = 1;
constexpr std::uint32_t kLinkRawIp = 101;

std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0x000000FFu) << 24) | ((v & 0x0000FF00u) << 8) |
         ((v & 0x00FF0000u) >> 8) | ((v & 0xFF000000u) >> 24);
}

/// File-order 32-bit read (pcap headers follow the file's own order).
class HeaderReader {
 public:
  explicit HeaderReader(bool swapped) : swapped_(swapped) {}

  [[nodiscard]] std::uint32_t u32(const unsigned char* p) const {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return swapped_ ? bswap32(v) : v;
  }

 private:
  bool swapped_;
};

/// Network-order (big-endian) reads for the packet contents.
std::uint16_t net16(const unsigned char* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t net32(const unsigned char* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace

std::uint32_t ServerEndpoint::parse_ipv4(const std::string& dotted) {
  std::istringstream is(dotted);
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    int octet;
    if (!(is >> octet) || octet < 0 || octet > 255) {
      throw std::invalid_argument("parse_ipv4: malformed address " +
                                  dotted);
    }
    out = (out << 8) | static_cast<std::uint32_t>(octet);
    if (i < 3) {
      char dot;
      if (!(is >> dot) || dot != '.') {
        throw std::invalid_argument("parse_ipv4: malformed address " +
                                    dotted);
      }
    }
  }
  char extra;
  if (is >> extra) {
    throw std::invalid_argument("parse_ipv4: trailing characters in " +
                                dotted);
  }
  return out;
}

Trace read_pcap(std::istream& is, const PcapReadOptions& opt,
                PcapReadStats* stats) {
  unsigned char ghdr[24];
  if (!is.read(reinterpret_cast<char*>(ghdr), 24)) {
    throw std::runtime_error("read_pcap: missing global header");
  }
  // The magic is written in the producer's byte order; loading it with
  // memcpy yields its host-order interpretation, so a "swapped" match
  // means the file order differs from ours.
  std::uint32_t magic_host;
  std::memcpy(&magic_host, ghdr, 4);
  bool swapped;
  bool nanos;
  if (magic_host == kMagicUsec) {
    swapped = false;
    nanos = false;
  } else if (magic_host == kMagicNsec) {
    swapped = false;
    nanos = true;
  } else if (magic_host == kMagicUsecSwapped) {
    swapped = true;
    nanos = false;
  } else if (magic_host == kMagicNsecSwapped) {
    swapped = true;
    nanos = true;
  } else {
    throw std::runtime_error("read_pcap: bad magic (not a pcap file)");
  }
  const HeaderReader hdr{swapped};
  const std::uint32_t linktype = hdr.u32(ghdr + 20);
  if (linktype != kLinkEthernet && linktype != kLinkRawIp) {
    throw std::runtime_error("read_pcap: unsupported linktype " +
                             std::to_string(linktype));
  }

  PcapReadStats local;
  Trace trace;
  std::map<std::pair<std::uint32_t, std::uint16_t>, std::uint16_t> flows;
  std::vector<unsigned char> data;

  unsigned char phdr[16];
  while (is.read(reinterpret_cast<char*>(phdr), 16)) {
    const std::uint32_t ts_sec = hdr.u32(phdr);
    const std::uint32_t ts_frac = hdr.u32(phdr + 4);
    const std::uint32_t incl_len = hdr.u32(phdr + 8);
    const std::uint32_t orig_len = hdr.u32(phdr + 12);
    if (incl_len > (1u << 26)) {
      throw std::runtime_error("read_pcap: implausible packet length");
    }
    data.resize(incl_len);
    if (!is.read(reinterpret_cast<char*>(data.data()), incl_len)) {
      throw std::runtime_error("read_pcap: truncated packet body");
    }
    ++local.frames;
    if (incl_len < orig_len) {
      ++local.truncated;
    }

    // Find the IPv4 header.
    std::size_t off = 0;
    if (linktype == kLinkEthernet) {
      if (data.size() < 14) {
        ++local.skipped;
        continue;
      }
      std::uint16_t ethertype = net16(data.data() + 12);
      off = 14;
      if (ethertype == 0x8100 && data.size() >= 18) {  // 802.1Q tag
        ethertype = net16(data.data() + 16);
        off = 18;
      }
      if (ethertype != 0x0800) {
        ++local.skipped;
        continue;
      }
    }
    if (data.size() < off + 20) {
      ++local.skipped;
      continue;
    }
    const unsigned char* ip = data.data() + off;
    const unsigned version = ip[0] >> 4;
    const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
    if (version != 4 || ihl < 20 || data.size() < off + ihl + 8) {
      ++local.skipped;
      continue;
    }
    const std::uint8_t protocol = ip[9];
    if (protocol != 17) {  // UDP only
      ++local.skipped;
      continue;
    }
    const std::uint16_t ip_total_len = net16(ip + 2);
    const std::uint32_t src_ip = net32(ip + 12);
    const std::uint32_t dst_ip = net32(ip + 16);
    const unsigned char* udp = ip + ihl;
    const std::uint16_t src_port = net16(udp);
    const std::uint16_t dst_port = net16(udp + 2);

    const bool from_server = src_ip == opt.server.ipv4 &&
                             src_port == opt.server.port;
    const bool to_server = dst_ip == opt.server.ipv4 &&
                           dst_port == opt.server.port;
    if (!from_server && !to_server) {
      ++local.skipped;
      continue;
    }
    const auto peer =
        from_server ? std::make_pair(dst_ip, dst_port)
                    : std::make_pair(src_ip, src_port);
    auto [it, inserted] = flows.try_emplace(
        peer, static_cast<std::uint16_t>(flows.size()));
    (void)inserted;

    PacketRecord r;
    const double frac_scale = nanos ? 1e-9 : 1e-6;
    r.time_s = static_cast<double>(ts_sec) +
               static_cast<double>(ts_frac) * frac_scale;
    r.size_bytes = opt.use_ip_length
                       ? ip_total_len
                       : orig_len;
    r.direction = from_server ? Direction::kServerToClient
                              : Direction::kClientToServer;
    r.flow_id = it->second;
    trace.add(r);
    ++local.udp_matched;
  }
  trace.sort_by_time();
  if (stats != nullptr) {
    *stats = local;
  }
  return trace;
}

Trace read_pcap_file(const std::string& path, const PcapReadOptions& opt,
                     PcapReadStats* stats) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("read_pcap_file: cannot open " + path);
  }
  return read_pcap(is, opt, stats);
}

}  // namespace fpsq::trace
