#include "state/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "metrics/registry.hpp"

#ifndef GDDA_GIT_SHA
#define GDDA_GIT_SHA "unknown"
#endif

namespace gdda::state {

namespace {

// ---------------------------------------------------------------------------
// Little-endian byte codec. Doubles travel as their raw 64 bits via memcpy,
// which is exactly what the bitwise contract requires: the decoded double is
// the same object representation, not a nearest-parse of a decimal string.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv1a(std::uint64_t& h, const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

class ByteWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(const std::string& s) {
        u64(s.size());
        buf_.append(s);
    }
    [[nodiscard]] const std::string& bytes() const { return buf_; }

private:
    std::string buf_;
};

class ByteReader {
public:
    ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}

    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
        return v;
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    std::string str() {
        std::uint64_t n = u64();
        if (n > size_ - pos_)
            throw SnapshotError(SnapshotErrorCode::Truncated,
                                "snapshot: string length exceeds remaining payload");
        std::string s(data_ + pos_, n);
        pos_ += n;
        return s;
    }
    /// Guard for count fields ahead of element loops: a corrupt count must
    /// fail fast instead of driving a multi-gigabyte allocation. Each
    /// element of the upcoming sequence occupies at least `min_elem_bytes`.
    std::uint64_t count(std::size_t min_elem_bytes, const char* what) {
        std::uint64_t n = u64();
        if (min_elem_bytes > 0 && n > (size_ - pos_) / min_elem_bytes)
            throw SnapshotError(SnapshotErrorCode::Corrupt,
                                std::string("snapshot: implausible ") + what + " count");
        return n;
    }
    /// One enum byte, rejected as Corrupt when it names no enumerator
    /// (`last` is the highest one).
    template <typename E>
    E enumerator(E last, const char* what) {
        const std::uint8_t v = u8();
        if (v > static_cast<std::uint8_t>(last))
            throw SnapshotError(SnapshotErrorCode::Corrupt,
                                std::string("snapshot: invalid ") + what);
        return static_cast<E>(v);
    }
    [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

private:
    void need(std::size_t n) {
        if (n > size_ - pos_)
            throw SnapshotError(SnapshotErrorCode::Truncated,
                                "snapshot: payload ends mid-structure");
    }
    const char* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// SimConfig codec: the full stored knob set, fixed order. The config rides
// in the payload so a snapshot is replayable standalone (gdda-serve --resume
// reconstructs the job's physics from the manifest, then restore_engine
// cross-checks it against this stored copy via the header fingerprint).

void write_config(ByteWriter& w, const core::SimConfig& c) {
    w.f64(c.dt);
    w.f64(c.dt_min);
    w.f64(c.dt_max);
    w.f64(c.velocity_carry);
    w.f64(c.max_disp_ratio);
    w.f64(c.search_factor);
    w.u8(static_cast<std::uint8_t>(c.broad_phase));
    w.f64(c.broad_phase_cell);
    w.u8(c.broad_phase_cache ? 1 : 0);
    w.f64(c.pair_cache_margin);
    w.u8(c.classify_pairs ? 1 : 0);
    w.f64(c.penalty_scale);
    w.f64(c.shear_penalty_ratio);
    w.f64(c.fixed_penalty_ratio);
    w.i32(c.max_open_close_iters);
    w.i32(c.max_step_retries);
    w.f64(c.dt_shrink);
    w.f64(c.dt_grow);
    w.u8(c.exact_rotation ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(c.precond));
    w.u8(static_cast<std::uint8_t>(c.spmv_backend));
    w.i32(c.step_threads);
    w.u8(c.reuse_structure ? 1 : 0);
    w.i32(c.checkpoint_interval);
    w.i32(c.pcg.max_iters);
    w.f64(c.pcg.rel_tol);
    w.f64(c.pcg.abs_tol);
    w.u8(static_cast<std::uint8_t>(c.pcg.precision));
    w.i32(c.pcg.max_refine_iters);
    w.i32(c.pcg.inner_max_iters);
    w.f64(c.pcg.inner_rel_tol);
    w.f64(c.pcg.refine_min_progress);
}

core::SimConfig read_config(ByteReader& r) {
    core::SimConfig c;
    c.dt = r.f64();
    c.dt_min = r.f64();
    c.dt_max = r.f64();
    c.velocity_carry = r.f64();
    c.max_disp_ratio = r.f64();
    c.search_factor = r.f64();
    c.broad_phase = r.enumerator(core::BroadPhase::Hash, "broad phase");
    c.broad_phase_cell = r.f64();
    c.broad_phase_cache = r.u8() != 0;
    c.pair_cache_margin = r.f64();
    c.classify_pairs = r.u8() != 0;
    c.penalty_scale = r.f64();
    c.shear_penalty_ratio = r.f64();
    c.fixed_penalty_ratio = r.f64();
    c.max_open_close_iters = r.i32();
    c.max_step_retries = r.i32();
    c.dt_shrink = r.f64();
    c.dt_grow = r.f64();
    c.exact_rotation = r.u8() != 0;
    c.precond = r.enumerator(core::PrecondKind::Ilu0, "preconditioner");
    c.spmv_backend = r.enumerator(core::SpmvBackend::SlicedEll, "SpMV backend");
    c.step_threads = r.i32();
    c.reuse_structure = r.u8() != 0;
    c.checkpoint_interval = r.i32();
    c.pcg.max_iters = r.i32();
    c.pcg.rel_tol = r.f64();
    c.pcg.abs_tol = r.f64();
    c.pcg.precision = r.enumerator(solver::PcgPrecision::MixedFp32, "PCG precision");
    c.pcg.max_refine_iters = r.i32();
    c.pcg.inner_max_iters = r.i32();
    c.pcg.inner_rel_tol = r.f64();
    c.pcg.refine_min_progress = r.f64();
    return c;
}

// ---------------------------------------------------------------------------
// BlockSystem / contact / checkpoint codec.

void write_system(ByteWriter& w, const block::BlockSystem& sys) {
    w.u64(sys.blocks.size());
    for (const block::Block& b : sys.blocks) {
        w.u64(b.verts.size());
        for (geom::Vec2 v : b.verts) {
            w.f64(v.x);
            w.f64(v.y);
        }
        w.i32(b.material);
        w.u8(b.fixed ? 1 : 0);
        for (int k = 0; k < 6; ++k) w.f64(b.velocity[k]);
        for (double s : b.stress) w.f64(s);
    }
    w.u64(sys.materials.size());
    for (const block::Material& m : sys.materials) {
        w.f64(m.density);
        w.f64(m.young);
        w.f64(m.poisson);
        w.u8(m.plane_strain ? 1 : 0);
    }
    w.u64(sys.joints.size());
    for (const block::JointMaterial& j : sys.joints) {
        w.f64(j.friction_deg);
        w.f64(j.cohesion);
        w.f64(j.tension);
    }
    w.u64(sys.fixed_points.size());
    for (const block::FixedPoint& fp : sys.fixed_points) {
        w.i32(fp.block);
        w.f64(fp.point.x);
        w.f64(fp.point.y);
        w.f64(fp.anchor.x);
        w.f64(fp.anchor.y);
    }
    w.u64(sys.point_loads.size());
    for (const block::PointLoad& pl : sys.point_loads) {
        w.i32(pl.block);
        w.f64(pl.point.x);
        w.f64(pl.point.y);
        w.f64(pl.force.x);
        w.f64(pl.force.y);
    }
    w.f64(sys.gravity.x);
    w.f64(sys.gravity.y);
    w.u64(sys.joint_of_material.size());
    for (int j : sys.joint_of_material) w.i32(j);
}

block::BlockSystem read_system(ByteReader& r) {
    block::BlockSystem sys;
    std::uint64_t nb = r.count(8 + 4 + 1 + 6 * 8 + 3 * 8, "block");
    sys.blocks.resize(nb);
    for (block::Block& b : sys.blocks) {
        std::uint64_t nv = r.count(16, "vertex");
        b.verts.resize(nv);
        for (geom::Vec2& v : b.verts) {
            v.x = r.f64();
            v.y = r.f64();
        }
        b.material = r.i32();
        b.fixed = r.u8() != 0;
        for (int k = 0; k < 6; ++k) b.velocity[k] = r.f64();
        for (double& s : b.stress) s = r.f64();
    }
    std::uint64_t nm = r.count(3 * 8 + 1, "material");
    sys.materials.resize(nm);
    for (block::Material& m : sys.materials) {
        m.density = r.f64();
        m.young = r.f64();
        m.poisson = r.f64();
        m.plane_strain = r.u8() != 0;
    }
    std::uint64_t nj = r.count(3 * 8, "joint");
    sys.joints.resize(nj);
    for (block::JointMaterial& j : sys.joints) {
        j.friction_deg = r.f64();
        j.cohesion = r.f64();
        j.tension = r.f64();
    }
    std::uint64_t nf = r.count(4 + 4 * 8, "fixed point");
    sys.fixed_points.resize(nf);
    for (block::FixedPoint& fp : sys.fixed_points) {
        fp.block = r.i32();
        fp.point.x = r.f64();
        fp.point.y = r.f64();
        fp.anchor.x = r.f64();
        fp.anchor.y = r.f64();
    }
    std::uint64_t nl = r.count(4 + 4 * 8, "point load");
    sys.point_loads.resize(nl);
    for (block::PointLoad& pl : sys.point_loads) {
        pl.block = r.i32();
        pl.point.x = r.f64();
        pl.point.y = r.f64();
        pl.force.x = r.f64();
        pl.force.y = r.f64();
    }
    sys.gravity.x = r.f64();
    sys.gravity.y = r.f64();
    std::uint64_t njm = r.count(4, "joint map");
    sys.joint_of_material.resize(njm);
    for (int& j : sys.joint_of_material) j = r.i32();
    return sys;
}

void write_contacts(ByteWriter& w, const std::vector<contact::Contact>& contacts) {
    w.u64(contacts.size());
    for (const contact::Contact& c : contacts) {
        w.u8(static_cast<std::uint8_t>(c.kind));
        w.i32(c.bi);
        w.i32(c.vi);
        w.i32(c.bj);
        w.i32(c.e1);
        w.i32(c.e2);
        w.u8(static_cast<std::uint8_t>(c.state));
        w.u8(static_cast<std::uint8_t>(c.prev_state));
        w.f64(c.shear_disp);
        w.f64(c.slide_sign);
        w.f64(c.last_gap);
        w.f64(c.edge_ratio);
        w.i32(c.p1);
        w.i32(c.p2);
    }
}

std::vector<contact::Contact> read_contacts(ByteReader& r) {
    std::uint64_t n = r.count(1 + 5 * 4 + 2 + 4 * 8 + 2 * 4, "contact");
    std::vector<contact::Contact> contacts(n);
    for (contact::Contact& c : contacts) {
        c.kind = r.enumerator(contact::ContactKind::VV2, "contact kind");
        c.bi = r.i32();
        c.vi = r.i32();
        c.bj = r.i32();
        c.e1 = r.i32();
        c.e2 = r.i32();
        c.state = r.enumerator(contact::ContactState::Lock, "contact state");
        c.prev_state = r.enumerator(contact::ContactState::Lock, "contact state");
        c.shear_disp = r.f64();
        c.slide_sign = r.f64();
        c.last_gap = r.f64();
        c.edge_ratio = r.f64();
        c.p1 = static_cast<std::int8_t>(r.i32());
        c.p2 = static_cast<std::int8_t>(r.i32());
    }
    return contacts;
}

std::string encode_payload(const EngineSnapshot& snap) {
    ByteWriter w;
    w.str(snap.header.git_sha);
    w.u8(snap.header.mode == core::EngineMode::Gpu ? 1 : 0);
    w.i64(snap.state.step_index);
    w.f64(snap.state.time);
    w.f64(snap.state.dt);
    w.f64(snap.state.w0);
    w.f64(snap.state.mobile_size);
    w.f64(snap.state.last_max_velocity);
    w.u64(snap.state.values_epoch);
    write_config(w, snap.config);
    write_system(w, snap.state.sys);
    write_contacts(w, snap.state.contacts);
    w.u64(snap.state.warm_start.size());
    for (const sparse::Vec6& v : snap.state.warm_start)
        for (int k = 0; k < 6; ++k) w.f64(v[k]);
    return w.bytes();
}

EngineSnapshot decode_payload(const char* data, std::size_t size) {
    ByteReader r(data, size);
    EngineSnapshot snap;
    snap.header.git_sha = r.str();
    snap.header.mode = r.u8() != 0 ? core::EngineMode::Gpu : core::EngineMode::Serial;
    snap.state.step_index = static_cast<int>(r.i64());
    snap.header.step_index = snap.state.step_index;
    snap.state.time = r.f64();
    snap.state.dt = r.f64();
    snap.state.w0 = r.f64();
    snap.state.mobile_size = r.f64();
    snap.state.last_max_velocity = r.f64();
    snap.state.values_epoch = r.u64();
    snap.config = read_config(r);
    snap.state.sys = read_system(r);
    snap.state.contacts = read_contacts(r);
    std::uint64_t nw = r.count(6 * 8, "warm start");
    snap.state.warm_start.resize(nw);
    for (sparse::Vec6& v : snap.state.warm_start)
        for (int k = 0; k < 6; ++k) v[k] = r.f64();
    if (r.remaining() != 0)
        throw SnapshotError(SnapshotErrorCode::Corrupt,
                            "snapshot: trailing bytes after payload");
    snap.header.time = snap.state.time;
    snap.header.dt = snap.state.dt;
    snap.header.block_count = snap.state.sys.blocks.size();
    snap.header.contact_count = snap.state.contacts.size();
    return snap;
}

metrics::Counter& state_counter(const char* name, const char* help) {
    return metrics::Registry::global().counter(name, help);
}

} // namespace

const char* to_string(SnapshotErrorCode code) {
    switch (code) {
        case SnapshotErrorCode::OpenFailed: return "open_failed";
        case SnapshotErrorCode::BadMagic: return "bad_magic";
        case SnapshotErrorCode::UnsupportedVersion: return "unsupported_version";
        case SnapshotErrorCode::Truncated: return "truncated";
        case SnapshotErrorCode::Corrupt: return "corrupt";
        case SnapshotErrorCode::Mismatch: return "mismatch";
    }
    return "unknown";
}

std::uint64_t config_fingerprint(const core::SimConfig& c) {
    // Canonical buffer over the trajectory-affecting knobs only. Knobs with
    // proven bitwise-identity contracts (broad phase, classification,
    // caches, threads) and observer-only knobs are excluded so a resume may
    // freely retune them without voiding the contract.
    ByteWriter w;
    w.f64(c.dt);
    w.f64(c.dt_min);
    w.f64(c.dt_max);
    w.f64(c.velocity_carry);
    w.f64(c.max_disp_ratio);
    w.f64(c.search_factor);
    w.f64(c.penalty_scale);
    w.f64(c.shear_penalty_ratio);
    w.f64(c.fixed_penalty_ratio);
    w.i32(c.max_open_close_iters);
    w.i32(c.max_step_retries);
    w.f64(c.dt_shrink);
    w.f64(c.dt_grow);
    w.u8(c.exact_rotation ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(c.precond));
    w.u8(static_cast<std::uint8_t>(c.spmv_backend));
    w.i32(c.pcg.max_iters);
    w.f64(c.pcg.rel_tol);
    w.f64(c.pcg.abs_tol);
    w.u8(static_cast<std::uint8_t>(c.pcg.precision));
    w.i32(c.pcg.max_refine_iters);
    w.i32(c.pcg.inner_max_iters);
    w.f64(c.pcg.inner_rel_tol);
    w.f64(c.pcg.refine_min_progress);
    std::uint64_t h = kFnvOffset;
    fnv1a(h, w.bytes().data(), w.bytes().size());
    return h;
}

EngineSnapshot capture(const core::DdaEngine& engine) {
    EngineSnapshot snap;
    snap.config = engine.config();
    snap.state = engine.capture();
    snap.header.version = kSnapshotVersion;
    snap.header.git_sha = GDDA_GIT_SHA;
    snap.header.mode = engine.mode();
    snap.header.step_index = snap.state.step_index;
    snap.header.time = snap.state.time;
    snap.header.dt = snap.state.dt;
    snap.header.block_count = snap.state.sys.blocks.size();
    snap.header.contact_count = snap.state.contacts.size();
    snap.header.state_fingerprint = block::state_fingerprint(snap.state.sys);
    snap.header.config_fingerprint = config_fingerprint(snap.config);
    return snap;
}

// File layout: magic(8) | version(u32) | header-extract | payload-size(u64)
// | payload | fnv1a(payload)(u64). The header extract repeats the cheap
// triage fields (mode, step, time, dt, counts, fingerprints) ahead of the
// payload so peek_header never touches the bulk data.
void save_snapshot(std::ostream& out, const EngineSnapshot& snap) {
    const std::string payload = encode_payload(snap);
    std::uint64_t checksum = kFnvOffset;
    fnv1a(checksum, payload.data(), payload.size());

    ByteWriter head;
    head.u32(kSnapshotVersion);
    head.str(snap.header.git_sha);
    head.u8(snap.header.mode == core::EngineMode::Gpu ? 1 : 0);
    head.i64(snap.header.step_index);
    head.f64(snap.header.time);
    head.f64(snap.header.dt);
    head.u64(snap.header.block_count);
    head.u64(snap.header.contact_count);
    head.u64(snap.header.state_fingerprint);
    head.u64(snap.header.config_fingerprint);
    head.u64(payload.size());

    out.write(kSnapshotMagic, 8);
    out.write(head.bytes().data(), static_cast<std::streamsize>(head.bytes().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    ByteWriter tail;
    tail.u64(checksum);
    out.write(tail.bytes().data(), static_cast<std::streamsize>(tail.bytes().size()));
    if (!out)
        throw SnapshotError(SnapshotErrorCode::OpenFailed, "snapshot: stream write failed");
}

void save_snapshot_file(const std::string& path, const EngineSnapshot& snap) {
    const std::string tmp = path + ".tmp";
    std::uint64_t bytes = 0;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw SnapshotError(SnapshotErrorCode::OpenFailed,
                                "snapshot: cannot open for writing: " + tmp);
        save_snapshot(out, snap);
        out.flush();
        if (!out)
            throw SnapshotError(SnapshotErrorCode::OpenFailed,
                                "snapshot: write failed: " + tmp);
        bytes = static_cast<std::uint64_t>(out.tellp());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError(SnapshotErrorCode::OpenFailed,
                            "snapshot: atomic rename failed: " + path);
    }
    state_counter("gdda_state_checkpoints_written_total",
                  "Snapshot files written by gdda::state")
        .inc();
    state_counter("gdda_state_checkpoint_bytes_total",
                  "Total bytes of snapshot files written")
        .inc(bytes);
}

void save_engine_file(const std::string& path, const core::DdaEngine& engine) {
    save_snapshot_file(path, capture(engine));
}

namespace {

struct RawHeader {
    SnapshotHeader header;
    std::uint64_t payload_size = 0;
};

RawHeader read_raw_header(std::istream& in) {
    char magic[8];
    in.read(magic, 8);
    if (in.gcount() != 8)
        throw SnapshotError(SnapshotErrorCode::Truncated, "snapshot: file shorter than magic");
    if (std::memcmp(magic, kSnapshotMagic, 8) != 0)
        throw SnapshotError(SnapshotErrorCode::BadMagic, "snapshot: not a gdda snapshot file");

    // Fixed-size prefix of the header extract (version + git-sha length).
    auto read_exact = [&](char* dst, std::size_t n) {
        in.read(dst, static_cast<std::streamsize>(n));
        if (static_cast<std::size_t>(in.gcount()) != n)
            throw SnapshotError(SnapshotErrorCode::Truncated,
                                "snapshot: file ends inside header");
    };
    char buf[12];
    read_exact(buf, 12); // u32 version + u64 sha length
    ByteReader pr(buf, 12);
    RawHeader raw;
    raw.header.version = pr.u32();
    // Each version has its own config layout, so a payload of any other
    // version would be misread: refuse it before touching the payload.
    if (raw.header.version != kSnapshotVersion)
        throw SnapshotError(SnapshotErrorCode::UnsupportedVersion,
                            "snapshot: schema version " + std::to_string(raw.header.version) +
                                " not supported (reader reads version " +
                                std::to_string(kSnapshotVersion) + ")");
    std::uint64_t sha_len = pr.u64();
    if (sha_len > 4096)
        throw SnapshotError(SnapshotErrorCode::Corrupt, "snapshot: implausible git sha length");
    std::string sha(sha_len, '\0');
    if (sha_len > 0) read_exact(sha.data(), sha_len);
    raw.header.git_sha = std::move(sha);

    char rest[1 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8];
    read_exact(rest, sizeof rest);
    ByteReader hr(rest, sizeof rest);
    raw.header.mode = hr.u8() != 0 ? core::EngineMode::Gpu : core::EngineMode::Serial;
    raw.header.step_index = static_cast<int>(hr.i64());
    raw.header.time = hr.f64();
    raw.header.dt = hr.f64();
    raw.header.block_count = hr.u64();
    raw.header.contact_count = hr.u64();
    raw.header.state_fingerprint = hr.u64();
    raw.header.config_fingerprint = hr.u64();
    raw.payload_size = hr.u64();
    return raw;
}

} // namespace

EngineSnapshot load_snapshot(std::istream& in) {
    RawHeader raw = read_raw_header(in);
    if (raw.payload_size > (1ull << 34))
        throw SnapshotError(SnapshotErrorCode::Corrupt, "snapshot: implausible payload size");
    std::string payload(raw.payload_size, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (static_cast<std::uint64_t>(in.gcount()) != raw.payload_size)
        throw SnapshotError(SnapshotErrorCode::Truncated, "snapshot: file ends inside payload");
    char tail[8];
    in.read(tail, 8);
    if (in.gcount() != 8)
        throw SnapshotError(SnapshotErrorCode::Truncated, "snapshot: missing checksum");
    ByteReader tr(tail, 8);
    std::uint64_t stored = tr.u64();
    std::uint64_t actual = kFnvOffset;
    fnv1a(actual, payload.data(), payload.size());
    if (stored != actual)
        throw SnapshotError(SnapshotErrorCode::Corrupt, "snapshot: payload checksum mismatch");

    EngineSnapshot snap = decode_payload(payload.data(), payload.size());
    snap.header.version = raw.header.version;

    // The header repeats the triage fields; they must agree with the decoded
    // payload or somebody edited one copy.
    if (snap.header.block_count != raw.header.block_count ||
        snap.header.contact_count != raw.header.contact_count ||
        snap.header.step_index != raw.header.step_index)
        throw SnapshotError(SnapshotErrorCode::Corrupt,
                            "snapshot: header disagrees with payload");

    // The decisive bit-faithfulness check: the fingerprint of the decoded
    // system must equal the one recorded at capture time.
    snap.header.state_fingerprint = block::state_fingerprint(snap.state.sys);
    if (snap.header.state_fingerprint != raw.header.state_fingerprint)
        throw SnapshotError(SnapshotErrorCode::Corrupt,
                            "snapshot: state fingerprint mismatch after decode");
    snap.header.config_fingerprint = config_fingerprint(snap.config);
    if (snap.header.config_fingerprint != raw.header.config_fingerprint)
        throw SnapshotError(SnapshotErrorCode::Corrupt,
                            "snapshot: config fingerprint mismatch after decode");
    state_counter("gdda_state_restores_total", "Snapshots successfully loaded").inc();
    return snap;
}

EngineSnapshot load_snapshot_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError(SnapshotErrorCode::OpenFailed,
                            "snapshot: cannot open for reading: " + path);
    return load_snapshot(in);
}

SnapshotHeader peek_header(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError(SnapshotErrorCode::OpenFailed,
                            "snapshot: cannot open for reading: " + path);
    return read_raw_header(in).header;
}

void restore_engine(core::DdaEngine& engine, const EngineSnapshot& snap,
                    bool allow_config_mismatch) {
    if (snap.header.mode != engine.mode())
        throw SnapshotError(SnapshotErrorCode::Mismatch,
                            "snapshot: engine mode differs from snapshot");
    if (snap.state.sys.blocks.size() != engine.system().size())
        throw SnapshotError(SnapshotErrorCode::Mismatch,
                            "snapshot: block count differs from target system");
    if (!allow_config_mismatch &&
        config_fingerprint(engine.config()) != snap.header.config_fingerprint)
        throw SnapshotError(
            SnapshotErrorCode::Mismatch,
            "snapshot: trajectory-affecting config differs from snapshot "
            "(pass allow_config_mismatch to resume with new physics knobs)");
    engine.restore(snap.state);
}

} // namespace gdda::state
