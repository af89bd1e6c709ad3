#include "checkpoint/format.h"

#include <array>
#include <bit>
#include <cstring>

#include "core/fileio.h"

static_assert(std::endian::native == std::endian::little,
              "checkpoint format assumes a little-endian target");

namespace mlperf::checkpoint {

namespace {

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k)
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78U : 0);  // reflected Castagnoli
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFF];
  return ~crc;
}

void ByteWriter::put_raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void ByteWriter::put_tensor(const tensor::Tensor& t) {
  const auto& shape = t.shape();
  put_u64(shape.size());
  for (auto d : shape) put_i64(d);
  put_raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

void ByteReader::get_raw(void* out, std::size_t size) {
  if (size > size_ - offset_)
    throw CheckpointError("checkpoint section '" + section_ + "' truncated: need " +
                          std::to_string(size) + " bytes at offset " +
                          std::to_string(offset_) + ", have " +
                          std::to_string(size_ - offset_));
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
}

std::string ByteReader::get_string() {
  const std::uint64_t n = get_u64();
  // Bound by the payload, not a fixed cap: session logs can be long, and a
  // corrupt length must fail here rather than allocate.
  if (n > remaining())
    throw CheckpointError("checkpoint section '" + section_ + "' truncated: string of " +
                          std::to_string(n) + " bytes, have " + std::to_string(remaining()));
  std::string s(static_cast<std::size_t>(n), '\0');
  get_raw(s.data(), s.size());
  return s;
}

tensor::Tensor ByteReader::get_tensor() {
  const std::uint64_t rank = get_u64();
  if (rank > 8)
    throw CheckpointError("checkpoint section '" + section_ + "': implausible rank " +
                          std::to_string(rank));
  tensor::Shape shape(static_cast<std::size_t>(rank));
  for (auto& d : shape) {
    d = get_i64();
    if (d < 0) throw CheckpointError("checkpoint section '" + section_ + "': negative extent");
  }
  // Overflow-safe element count: cap numel at what the payload could possibly
  // hold BEFORE each multiply, so corrupt extents can neither overflow the
  // accumulator nor wrap the size check into a huge allocation.
  const std::uint64_t max_numel = remaining() / sizeof(float);
  std::uint64_t numel = 1;
  for (auto d : shape) {
    const auto ud = static_cast<std::uint64_t>(d);
    if (ud != 0 && numel > max_numel / ud)
      throw CheckpointError("checkpoint section '" + section_ +
                            "' truncated inside tensor payload");
    numel *= ud;
  }
  if (numel > max_numel)
    throw CheckpointError("checkpoint section '" + section_ +
                          "' truncated inside tensor payload");
  tensor::Tensor t(std::move(shape));
  get_raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return t;
}

ByteWriter& CheckpointWriter::section(const std::string& name) {
  for (auto& [n, w] : sections_)
    if (n == name) return w;
  sections_.emplace_back(name, ByteWriter());
  return sections_.back().second;
}

bool CheckpointWriter::has_section(const std::string& name) const {
  for (const auto& [n, w] : sections_)
    if (n == name) return true;
  return false;
}

std::size_t CheckpointWriter::byte_size() const {
  std::size_t total = sizeof(kMagic) + sizeof(kFormatVersion) + sizeof(std::uint64_t);
  for (const auto& [name, w] : sections_)
    total += sizeof(std::uint64_t) + name.size() +  // name
             sizeof(std::uint64_t) + sizeof(std::uint32_t) + w.size();
  return total;
}

std::vector<std::uint8_t> CheckpointWriter::serialize() const {
  ByteWriter out;
  out.put_u32(kMagic);
  out.put_u32(kFormatVersion);
  out.put_u64(sections_.size());
  for (const auto& [name, w] : sections_) {
    out.put_string(name);
    out.put_u64(w.size());
    out.put_u32(crc32c(w.bytes().data(), w.size()));
    out.put_raw(w.bytes().data(), w.size());
  }
  return out.bytes();
}

void CheckpointWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  core::atomic_write_file(path, bytes.data(), bytes.size());
}

CheckpointReader CheckpointReader::parse(std::vector<std::uint8_t> bytes,
                                         const std::string& origin) {
  CheckpointReader r;
  r.bytes_ = std::move(bytes);
  ByteReader header(r.bytes_.data(), r.bytes_.size(), "header:" + origin);
  const std::uint32_t magic = header.get_u32();
  if (magic != kMagic)
    throw CheckpointError("not a checkpoint file (bad magic) in " + origin);
  r.version_ = header.get_u32();
  if (r.version_ != kFormatVersion)
    throw CheckpointError("checkpoint format version mismatch in " + origin + ": file has v" +
                          std::to_string(r.version_) + ", this build reads v" +
                          std::to_string(kFormatVersion));
  const std::uint64_t count = header.get_u64();
  if (count > 1024)
    throw CheckpointError("implausible section count " + std::to_string(count) + " in " +
                          origin);
  for (std::uint64_t i = 0; i < count; ++i) {
    SectionInfo info;
    info.name = header.get_string();
    info.size = header.get_u64();
    info.stored_crc = header.get_u32();
    if (info.size > header.remaining())
      throw CheckpointError("checkpoint truncated in " + origin + ": section '" + info.name +
                            "' claims " + std::to_string(info.size) + " bytes, " +
                            std::to_string(header.remaining()) + " remain");
    const std::size_t offset = r.bytes_.size() - header.remaining();
    info.computed_crc = crc32c(r.bytes_.data() + offset, static_cast<std::size_t>(info.size));
    if (!info.crc_ok())
      throw CheckpointError("checkpoint corrupted in " + origin + ": section '" + info.name +
                            "' CRC32C mismatch (stored " + std::to_string(info.stored_crc) +
                            ", computed " + std::to_string(info.computed_crc) + ")");
    std::vector<std::uint8_t> skip(static_cast<std::size_t>(info.size));
    header.get_raw(skip.data(), skip.size());
    r.infos_.push_back(std::move(info));
    r.offsets_.push_back(offset);
  }
  if (!header.done())
    throw CheckpointError("checkpoint has " + std::to_string(header.remaining()) +
                          " trailing bytes in " + origin);
  return r;
}

CheckpointReader CheckpointReader::read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = core::read_file_bytes(path);
  } catch (const std::runtime_error& e) {
    throw CheckpointError(std::string("cannot read checkpoint: ") + e.what());
  }
  return parse(std::move(bytes), path);
}

bool CheckpointReader::has_section(const std::string& name) const {
  for (const auto& info : infos_)
    if (info.name == name) return true;
  return false;
}

ByteReader CheckpointReader::section(const std::string& name) const {
  for (std::size_t i = 0; i < infos_.size(); ++i)
    if (infos_[i].name == name)
      return ByteReader(bytes_.data() + offsets_[i],
                        static_cast<std::size_t>(infos_[i].size), name);
  throw CheckpointError("checkpoint is missing section '" + name + "'");
}

InspectReport inspect_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = core::read_file_bytes(path);
  } catch (const std::runtime_error& e) {
    throw CheckpointError(std::string("cannot read checkpoint: ") + e.what());
  }
  InspectReport report;
  report.file_bytes = bytes.size();
  ByteReader header(bytes.data(), bytes.size(), "header:" + path);
  report.magic = header.get_u32();
  report.magic_ok = report.magic == kMagic;
  report.version = header.get_u32();
  report.version_ok = report.version == kFormatVersion;
  if (!report.magic_ok) return report;  // not our file; stop before the table walk
  const std::uint64_t count = header.get_u64();
  if (count > 1024) throw CheckpointError("implausible section count in " + path);
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointReader::SectionInfo info;
    info.name = header.get_string();
    info.size = header.get_u64();
    info.stored_crc = header.get_u32();
    if (info.size > header.remaining())
      throw CheckpointError("checkpoint truncated in " + path + ": section '" + info.name +
                            "' payload cut short");
    const std::size_t offset = bytes.size() - header.remaining();
    info.computed_crc = crc32c(bytes.data() + offset, static_cast<std::size_t>(info.size));
    std::vector<std::uint8_t> skip(static_cast<std::size_t>(info.size));
    header.get_raw(skip.data(), skip.size());
    report.sections.push_back(std::move(info));
  }
  return report;
}

}  // namespace mlperf::checkpoint
