//! The `sr-snap v1` binary snapshot format.
//!
//! A snapshot freezes everything the online query path needs from one
//! accepted re-partitioning run: the partition (`gIndex` + `cIndex`), the
//! allocated group feature vectors (Algorithm 2 output), the group
//! adjacency lists (Algorithm 3 output), the input grid's validity bitmap
//! (needed to un-sum `Sum` attributes per §III-C), the attribute schema,
//! the geographic bounds, and the run parameters (`θ`, achieved IFL,
//! accepted min-adjacent variation).
//!
//! ## Layout (all integers little-endian, all `f64` as IEEE-754 bits)
//!
//! | section        | contents                                              |
//! |----------------|-------------------------------------------------------|
//! | magic          | `b"SRSNAP"` (6 bytes)                                 |
//! | version        | `u16` = 1                                             |
//! | shape          | `rows: u32`, `cols: u32`, `num_groups: u32`, `num_attrs: u32` |
//! | run params     | `theta: f64`, `ifl: f64`, `min_adjacent_variation: f64` |
//! | bounds         | `lat_min, lat_max, lon_min, lon_max: f64`             |
//! | attrs          | per attribute: `name_len: u16`, UTF-8 name, `agg: u8` (0=Sum, 1=Avg, 2=Mode), `integer: u8` (0/1) |
//! | valid bitmap   | `⌈rows·cols / 8⌉` bytes, cell `i` at bit `i % 8` (LSB-first) of byte `i / 8` |
//! | groups         | per group: `r0, r1, c0, c1: u32` (inclusive)          |
//! | cell_to_group  | `rows·cols × u32`, row-major                          |
//! | features       | per group: `present: u8` (0/1), then `num_attrs × f64` if present |
//! | adjacency      | per group: `degree: u32`, then `degree × u32` neighbor ids |
//! | trailer        | CRC-32 (IEEE 802.3) over every preceding byte, `u32`  |
//!
//! `f64` values travel as raw bit patterns, so write → read → write
//! reproduces the input byte-for-byte (including negative zeros and NaN
//! payloads). The trailer rejects any single-byte corruption.

use crate::{Result, ServeError};
use sr_core::{GroupFeatures, GroupRect, Partition, Repartitioned};
use sr_grid::{AdjacencyList, AggType, Bounds, GridDataset};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) const MAGIC: &[u8; 6] = b"SRSNAP";
const VERSION: u16 = 1;
/// Upper bound on `rows · cols`, a guard against pathological headers
/// driving allocation (well above the paper's 100k-cell grids).
pub(crate) const MAX_CELLS: usize = 1 << 28;
/// Upper bound on attributes per cell.
pub(crate) const MAX_ATTRS: usize = 4096;
/// A decoded v1 file's dense `t × p` feature table may be at most this
/// many times the payload. v1 stores rows only for featured groups, so a
/// small file of null groups with a wide schema could otherwise claim a
/// table far larger than itself; a real snapshot stays far below (each
/// null group costs at least 25 payload bytes, each featured group its
/// own `8·p`-byte row).
const MAX_TABLE_PER_PAYLOAD_BYTE: usize = 64;

/// An immutable, serializable view of one accepted re-partitioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    rows: usize,
    cols: usize,
    theta: f64,
    ifl: f64,
    min_adjacent_variation: f64,
    bounds: Bounds,
    attr_names: Vec<String>,
    agg_types: Vec<AggType>,
    integer_attrs: Vec<bool>,
    valid: Vec<bool>,
    partition: Partition,
    features: GroupFeatures,
    adjacency: AdjacencyList,
}

impl Snapshot {
    /// Freezes an accepted run into a snapshot. `original` must be the grid
    /// `rep` was computed from (it supplies the validity bitmap); `theta` is
    /// the loss budget the run was given, kept for cache keying.
    pub fn build(rep: &Repartitioned, original: &GridDataset, theta: f64) -> Result<Snapshot> {
        if rep.partition().rows() != original.rows()
            || rep.partition().cols() != original.cols()
            || rep.attr_names().len() != original.num_attrs()
        {
            return Err(ServeError::Invalid(
                "repartitioned result does not match the original grid's shape".into(),
            ));
        }
        Snapshot::from_parts(
            theta,
            rep.ifl(),
            rep.min_adjacent_variation(),
            original.bounds(),
            rep.attr_names().to_vec(),
            rep.agg_types().to_vec(),
            rep.integer_attrs().to_vec(),
            original.valid_mask().to_vec(),
            rep.partition().clone(),
            rep.features().clone(),
            rep.adjacency(),
        )
    }

    /// Assembles a snapshot from raw parts, checking every cross-section
    /// invariant the binary reader also enforces.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        theta: f64,
        ifl: f64,
        min_adjacent_variation: f64,
        bounds: Bounds,
        attr_names: Vec<String>,
        agg_types: Vec<AggType>,
        integer_attrs: Vec<bool>,
        valid: Vec<bool>,
        partition: Partition,
        features: GroupFeatures,
        adjacency: AdjacencyList,
    ) -> Result<Snapshot> {
        let s = Snapshot {
            rows: partition.rows(),
            cols: partition.cols(),
            theta,
            ifl,
            min_adjacent_variation,
            bounds,
            attr_names,
            agg_types,
            integer_attrs,
            valid,
            partition,
            features,
            adjacency,
        };
        s.validate()?;
        Ok(s)
    }

    fn validate(&self) -> Result<()> {
        let invalid = |msg: String| Err(ServeError::Invalid(msg));
        let cells = self.rows * self.cols;
        let p = self.attr_names.len();
        if self.rows == 0 || self.cols == 0 || p == 0 {
            return invalid("empty grid or schema".into());
        }
        if cells > MAX_CELLS || p > MAX_ATTRS {
            return invalid("grid or schema exceeds format limits".into());
        }
        if self.agg_types.len() != p || self.integer_attrs.len() != p {
            return invalid("attribute metadata lengths differ".into());
        }
        // Both formats store name lengths as u16.
        if self.attr_names.iter().any(|n| n.len() > u16::MAX as usize) {
            return invalid("attribute name longer than 65535 bytes".into());
        }
        if self.valid.len() != cells {
            return invalid("validity bitmap length != rows * cols".into());
        }
        let t = self.partition.num_groups();
        if t == 0 || t > cells {
            return invalid(format!("group count {t} out of range for {cells} cells"));
        }
        if self.features.num_groups() != t {
            return invalid("feature table length != group count".into());
        }
        if self.features.num_attrs() != p {
            return invalid("feature vector length != num_attrs".into());
        }
        if self.adjacency.len() != t {
            return invalid("adjacency length != group count".into());
        }
        // The rectangles must tile the grid, and cIndex must agree with
        // gIndex exactly (the release-mode version of Partition::new's
        // debug assertions — snapshot bytes are untrusted input).
        let mut counted = 0usize;
        for gid in 0..t as u32 {
            let rect = self.partition.rect(gid);
            if rect.r0 > rect.r1
                || rect.c0 > rect.c1
                || rect.r1 as usize >= self.rows
                || rect.c1 as usize >= self.cols
            {
                return invalid(format!("group {gid} rectangle out of grid bounds"));
            }
            counted += rect.len();
            if counted > cells {
                return invalid("group rectangles overlap or exceed the grid".into());
            }
            for cell in self.partition.cells_iter(gid) {
                if self.partition.group_of(cell) != gid {
                    return invalid(format!(
                        "cell {cell} not mapped to its containing group {gid}"
                    ));
                }
            }
        }
        if counted != cells {
            return invalid("group rectangles do not tile the grid".into());
        }
        // Every group's valid-member count must match the validity bitmap:
        // Algorithm 2 gives features exactly to the groups with at least
        // one valid member, the query engine relies on this to equate the
        // validity bitmap with reconstruction validity, and the counts are
        // the §III-C divisor of `Sum` attributes.
        if valid_member_counts(&self.partition, &self.valid) != self.features.valid_counts() {
            return invalid("group valid-member counts disagree with the validity bitmap".into());
        }
        for gid in 0..t as u32 {
            for &nb in self.adjacency.neighbors(gid) {
                if nb as usize >= t {
                    return invalid(format!("group {gid} has out-of-range neighbor {nb}"));
                }
            }
        }
        Ok(())
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total cells, `rows · cols`.
    pub fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Attributes per cell.
    pub fn num_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// The loss budget `θ` the run was given.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The achieved IFL of the frozen partition.
    pub fn ifl(&self) -> f64 {
        self.ifl
    }

    /// The accepted min-adjacent variation.
    pub fn min_adjacent_variation(&self) -> f64 {
        self.min_adjacent_variation
    }

    /// Geographic bounds of the grid.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Attribute names.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Per-attribute aggregation types.
    pub fn agg_types(&self) -> &[AggType] {
        &self.agg_types
    }

    /// Per-attribute integer-typed flags.
    pub fn integer_attrs(&self) -> &[bool] {
        &self.integer_attrs
    }

    /// The original grid's validity bitmap (cell id → non-null).
    pub fn valid_mask(&self) -> &[bool] {
        &self.valid
    }

    /// The frozen partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Allocated group features (Algorithm 2 output) with each group's
    /// valid-member count.
    pub fn features(&self) -> &GroupFeatures {
        &self.features
    }

    /// Group adjacency lists (Algorithm 3 output).
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adjacency
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Eight shifted lookup tables for slicing-by-8: `CRC_TABLES[0]` is the
/// classic byte-at-a-time table, `CRC_TABLES[j][b]` is the CRC of byte
/// `b` followed by `j` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC-32 of `bytes` (the standard zlib/PNG checksum).
///
/// The v2 snapshot path checksums whole multi-megabyte sections on
/// every load, so throughput here is startup latency. Large inputs go
/// through a carry-less-multiplication kernel (`PCLMULQDQ` folding,
/// ~an order of magnitude faster than table lookup) when the CPU has
/// it; everything else — short inputs, tails, other architectures —
/// uses slicing-by-8 table lookups. Both produce the exact values of
/// the byte-at-a-time definition (reflected polynomial 0xEDB88320).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    let mut rest = bytes;
    #[cfg(target_arch = "x86_64")]
    if rest.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let split = rest.len() & !15;
        // SAFETY: the required CPU features were just detected, and the
        // kernel's preconditions hold (len >= 64 and a multiple of 16).
        state = unsafe { crc32_pclmul(state, &rest[..split]) };
        rest = &rest[split..];
    }
    !crc32_table(state, rest)
}

/// Slicing-by-8 continuation: folds `bytes` into the running (inverted)
/// CRC `state`.
fn crc32_table(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 folding with carry-less multiplication, after the classic
/// Intel recipe (also used by zlib): four 128-bit lanes fold 64 bytes
/// per step under the constants `x^(512+k) mod P`, the lanes are folded
/// into one, then Barrett reduction brings the 128-bit remainder down
/// to the 32-bit CRC. Takes and returns the *inverted* running state,
/// like [`crc32_table`].
///
/// # Safety
///
/// Caller must ensure the CPU supports `pclmulqdq` and `sse4.1`, and
/// that `buf.len() >= 64` and `buf.len() % 16 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
unsafe fn crc32_pclmul(crc: u32, buf: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(buf.len() >= 64 && buf.len().is_multiple_of(16));
    // Folding constants for the reflected polynomial 0xEDB88320:
    // k1 = x^576 mod P, k2 = x^512 mod P (64-byte fold);
    // k3 = x^192 mod P, k4 = x^128 mod P (16-byte fold);
    // k5 = x^96 mod P; mu/P' for the Barrett step.
    let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0xccaa_009e, 0x1_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
    let poly = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
    // fold(x, k, y) = (x.lo · k.lo) ^ (x.hi · k.hi) ^ y
    let fold = |x: __m128i, k: __m128i, y: __m128i| -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
            y,
        )
    };

    let mut ptr = buf.as_ptr().cast::<__m128i>();
    let mut len = buf.len();
    let mut x1 = _mm_loadu_si128(ptr);
    let mut x2 = _mm_loadu_si128(ptr.add(1));
    let mut x3 = _mm_loadu_si128(ptr.add(2));
    let mut x4 = _mm_loadu_si128(ptr.add(3));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(crc as i32));
    ptr = ptr.add(4);
    len -= 64;
    while len >= 64 {
        x1 = fold(x1, k1k2, _mm_loadu_si128(ptr));
        x2 = fold(x2, k1k2, _mm_loadu_si128(ptr.add(1)));
        x3 = fold(x3, k1k2, _mm_loadu_si128(ptr.add(2)));
        x4 = fold(x4, k1k2, _mm_loadu_si128(ptr.add(3)));
        ptr = ptr.add(4);
        len -= 64;
    }
    // Fold the four lanes into one, then any remaining 16-byte blocks.
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    while len >= 16 {
        x1 = fold(x1, k3k4, _mm_loadu_si128(ptr));
        ptr = ptr.add(1);
        len -= 16;
    }
    // 128 -> 64 bits.
    let mask32 = _mm_set_epi32(0, -1, 0, -1);
    let folded = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), folded);
    let hi = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
    x1 = _mm_xor_si128(x1, hi);
    // Barrett reduction 64 -> 32 bits.
    let mut t = _mm_and_si128(x1, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x10);
    t = _mm_and_si128(t, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x00);
    x1 = _mm_xor_si128(x1, t);
    _mm_extract_epi32(x1, 1) as u32
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serializes a snapshot to its `sr-snap v1` byte representation
/// (checksum trailer included). Deterministic: equal snapshots produce
/// equal bytes.
pub fn snapshot_to_bytes(s: &Snapshot) -> Vec<u8> {
    let cells = s.num_cells();
    let p = s.num_attrs();
    let t = s.partition.num_groups();
    let mut buf = Vec::with_capacity(64 + cells.div_ceil(8) + cells * 4 + t * (17 + p * 8));

    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(s.rows as u32).to_le_bytes());
    buf.extend_from_slice(&(s.cols as u32).to_le_bytes());
    buf.extend_from_slice(&(t as u32).to_le_bytes());
    buf.extend_from_slice(&(p as u32).to_le_bytes());
    for v in [s.theta, s.ifl, s.min_adjacent_variation] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in [s.bounds.lat_min, s.bounds.lat_max, s.bounds.lon_min, s.bounds.lon_max] {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for k in 0..p {
        let name = s.attr_names[k].as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        buf.push(match s.agg_types[k] {
            AggType::Sum => 0,
            AggType::Avg => 1,
            AggType::Mode => 2,
        });
        buf.push(s.integer_attrs[k] as u8);
    }
    let mut bitmap = vec![0u8; cells.div_ceil(8)];
    for (i, &v) in s.valid.iter().enumerate() {
        if v {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&bitmap);
    for rect in s.partition.rects() {
        for v in [rect.r0, rect.r1, rect.c0, rect.c1] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    for &g in s.partition.cell_to_group() {
        buf.extend_from_slice(&g.to_le_bytes());
    }
    for fv in s.features.iter() {
        match fv {
            Some(fv) => {
                buf.push(1);
                for &v in fv {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            None => buf.push(0),
        }
    }
    for gid in 0..t as u32 {
        let nbs = s.adjacency.neighbors(gid);
        buf.extend_from_slice(&(nbs.len() as u32).to_le_bytes());
        for &nb in nbs {
            buf.extend_from_slice(&nb.to_le_bytes());
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// A bounds-checked little-endian reader over the payload bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ServeError::Format { offset: self.pos, message: message.into() })
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return self
                .err(format!("truncated: need {n} bytes, {} remain", self.buf.len() - self.pos));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap())))
    }
}

/// Parses `sr-snap v1` bytes back into a [`Snapshot`], verifying the
/// checksum first and every structural invariant afterwards.
pub fn snapshot_from_bytes(buf: &[u8]) -> Result<Snapshot> {
    if buf.len() < MAGIC.len() + 2 + 4 {
        return Err(ServeError::Format {
            offset: usize::MAX,
            message: format!("file too short ({} bytes) to be a snapshot", buf.len()),
        });
    }
    let (payload, trailer) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    let computed = crc32(payload);
    if stored != computed {
        return Err(ServeError::Checksum { stored, computed });
    }

    let mut r = Reader { buf: payload, pos: 0 };
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(ServeError::Format {
            offset: 0,
            message: "bad magic: not an sr-snap file".into(),
        });
    }
    let version = r.u16()?;
    if version != VERSION {
        return r.err(format!("unsupported snapshot version {version} (expected {VERSION})"));
    }
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let num_groups = r.u32()? as usize;
    let num_attrs = r.u32()? as usize;
    if rows == 0 || cols == 0 {
        return r.err("zero rows or columns");
    }
    let cells =
        rows.checked_mul(cols).filter(|&n| n <= MAX_CELLS).ok_or_else(|| ServeError::Format {
            offset: r.pos,
            message: format!("grid {rows}x{cols} exceeds the format's cell limit"),
        })?;
    if num_groups == 0 || num_groups > cells {
        return r.err(format!("group count {num_groups} out of range for {cells} cells"));
    }
    if num_attrs == 0 || num_attrs > MAX_ATTRS {
        return r.err(format!("attribute count {num_attrs} out of range"));
    }
    let theta = r.f64()?;
    let ifl = r.f64()?;
    let min_adjacent_variation = r.f64()?;
    let bounds =
        Bounds { lat_min: r.f64()?, lat_max: r.f64()?, lon_min: r.f64()?, lon_max: r.f64()? };

    let mut attr_names = Vec::with_capacity(num_attrs);
    let mut agg_types = Vec::with_capacity(num_attrs);
    let mut integer_attrs = Vec::with_capacity(num_attrs);
    for _ in 0..num_attrs {
        let len = r.u16()? as usize;
        let name_pos = r.pos;
        let name = std::str::from_utf8(r.bytes(len)?)
            .map_err(|e| ServeError::Format {
                offset: name_pos,
                message: format!("attribute name is not UTF-8: {e}"),
            })?
            .to_string();
        let agg = match r.u8()? {
            0 => AggType::Sum,
            1 => AggType::Avg,
            2 => AggType::Mode,
            other => return r.err(format!("unknown aggregation code {other}")),
        };
        let integer = match r.u8()? {
            0 => false,
            1 => true,
            other => return r.err(format!("integer flag must be 0/1, got {other}")),
        };
        attr_names.push(name);
        agg_types.push(agg);
        integer_attrs.push(integer);
    }

    let bitmap = r.bytes(cells.div_ceil(8))?;
    let valid: Vec<bool> = (0..cells).map(|i| bitmap[i / 8] >> (i % 8) & 1 == 1).collect();

    let mut groups = Vec::with_capacity(num_groups);
    for _ in 0..num_groups {
        groups.push(GroupRect { r0: r.u32()?, r1: r.u32()?, c0: r.u32()?, c1: r.u32()? });
    }
    let mut cell_to_group = Vec::with_capacity(cells);
    for _ in 0..cells {
        let g = r.u32()?;
        if g as usize >= num_groups {
            return r.err(format!("cell mapped to out-of-range group {g}"));
        }
        cell_to_group.push(g);
    }
    // Rectangle sanity must hold before Partition::new (whose debug
    // assertions index cells by rectangle coordinates).
    for (gid, rect) in groups.iter().enumerate() {
        if rect.r0 > rect.r1
            || rect.c0 > rect.c1
            || rect.r1 as usize >= rows
            || rect.c1 as usize >= cols
        {
            return r.err(format!("group {gid} rectangle out of grid bounds"));
        }
    }
    let mut counted = 0usize;
    for (gid, rect) in groups.iter().enumerate() {
        counted += rect.len();
        if counted > cells {
            return r.err("group rectangles overlap or exceed the grid");
        }
        for (row, col) in rect.cells() {
            if cell_to_group[row as usize * cols + col as usize] as usize != gid {
                return r.err(format!("cell ({row},{col}) not mapped to its group {gid}"));
            }
        }
    }
    if counted != cells {
        return r.err("group rectangles do not tile the grid");
    }
    let partition = Partition::new(rows, cols, groups, cell_to_group);

    // A group is featured exactly when it has a valid member (see
    // `Snapshot::validate`), so the counts follow from the bitmap and each
    // presence flag must agree with them.
    let counts = valid_member_counts(&partition, &valid);
    let table_bytes = num_groups.checked_mul(num_attrs).and_then(|n| n.checked_mul(8));
    if table_bytes.is_none_or(|b| b > MAX_TABLE_PER_PAYLOAD_BYTE * payload.len()) {
        return r.err(format!(
            "{num_groups} groups × {num_attrs} attributes exceed the feature-table bound \
             for a {}-byte file",
            buf.len()
        ));
    }
    let mut values = vec![0.0f64; num_groups * num_attrs];
    for (gid, row) in values.chunks_exact_mut(num_attrs).enumerate() {
        let present = match r.u8()? {
            0 => false,
            1 => true,
            other => return r.err(format!("group {gid} presence flag must be 0/1, got {other}")),
        };
        if present != (counts[gid] > 0) {
            return r.err(format!(
                "group {gid} presence flag disagrees with its {} valid cells",
                counts[gid]
            ));
        }
        if present {
            for v in row {
                *v = r.f64()?;
            }
        }
    }

    let mut offsets = Vec::with_capacity(num_groups + 1);
    offsets.push(0u32);
    let mut neighbors = Vec::new();
    for gid in 0..num_groups {
        let degree = r.u32()? as usize;
        if degree > num_groups {
            return r.err(format!("group {gid} degree {degree} exceeds group count"));
        }
        for _ in 0..degree {
            let nb = r.u32()?;
            if nb as usize >= num_groups {
                return r.err(format!("group {gid} has out-of-range neighbor {nb}"));
            }
            neighbors.push(nb);
        }
        match u32::try_from(neighbors.len()) {
            Ok(end) => offsets.push(end),
            Err(_) => return r.err("adjacency exceeds u32::MAX neighbors"),
        }
    }
    if r.pos != payload.len() {
        return r.err(format!("{} trailing bytes after the last section", payload.len() - r.pos));
    }

    Snapshot::from_parts(
        theta,
        ifl,
        min_adjacent_variation,
        bounds,
        attr_names,
        agg_types,
        integer_attrs,
        valid,
        partition,
        GroupFeatures::from_flat(num_attrs, values, counts),
        AdjacencyList::from_csr(offsets, neighbors),
    )
}

/// Valid-member count of every group of `partition` under the cell
/// validity mask `valid`.
pub(crate) fn valid_member_counts(partition: &Partition, valid: &[bool]) -> Vec<u32> {
    let mut counts = vec![0u32; partition.num_groups()];
    for (&g, _) in partition.cell_to_group().iter().zip(valid).filter(|(_, &v)| v) {
        counts[g as usize] += 1;
    }
    counts
}

/// Writes a snapshot to `w` in `sr-snap v1` format.
pub fn write_snapshot<W: Write>(mut w: W, s: &Snapshot) -> Result<()> {
    w.write_all(&snapshot_to_bytes(s))?;
    Ok(())
}

/// Reads a snapshot from `r`, consuming it to EOF.
pub fn read_snapshot<R: Read>(mut r: R) -> Result<Snapshot> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    snapshot_from_bytes(&buf)
}

/// Saves a snapshot to a file **atomically**: the bytes are written to a
/// sibling temp file, fsynced, and renamed over `path`. A crash (or an
/// injected fault) at any point leaves either the old file or the new one
/// — never a torn mixture — and the CRC-32 trailer rejects whatever a
/// non-atomic writer might have left behind (`docs/ROBUSTNESS.md`).
pub fn save_snapshot(s: &Snapshot, path: impl AsRef<Path>) -> Result<()> {
    save_snapshot_with(s, path, None)
}

/// [`save_snapshot`] with the write path subject to a
/// [`sr_fault::FaultPlan`] (`write.*` faults). On any failure the temp
/// file is removed and the previous file at `path` is left untouched.
pub fn save_snapshot_with(
    s: &Snapshot,
    path: impl AsRef<Path>,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<()> {
    write_bytes_atomic(&snapshot_to_bytes(s), path.as_ref(), plan)
}

/// Process-wide sequence that makes every temp-file name unique, so
/// concurrent saves to one path never share (and truncate) a temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The atomic temp-file + fsync + rename writer shared by the v1 and v2
/// save paths. The temp file is `<path>.tmp.<pid>.<seq>`, unique per call
/// within the process, so concurrent writers to one path each rename a
/// complete file and the last rename wins. On any failure the temp file is
/// removed and the previous file at `path` is left untouched.
pub(crate) fn write_bytes_atomic(
    bytes: &[u8],
    path: &Path,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| -> Result<()> {
        let file = std::fs::File::create(&tmp)?;
        let file = match plan {
            Some(plan) => {
                let mut w = plan.wrap_write(file);
                w.write_all(bytes)?;
                w.into_inner()
            }
            None => {
                let mut w = file;
                w.write_all(bytes)?;
                w
            }
        };
        // Flush to disk before the rename publishes the file: otherwise a
        // power loss could publish a name pointing at unwritten blocks.
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Loads a snapshot from a file, accepting **either** format version:
/// v1 decodes directly, v2 is validated and materialized into the owned
/// form. Use [`crate::load_engine`] when the goal is serving — it keeps
/// v2 bytes borrowed instead of materializing them.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Snapshot> {
    load_snapshot_with(path, None)
}

/// [`load_snapshot`] with the read path subject to a
/// [`sr_fault::FaultPlan`] (`read.*` faults). An injected premature EOF
/// surfaces exactly like a torn write: the checksum/format checks reject
/// the truncated bytes, never returning garbage.
pub fn load_snapshot_with(
    path: impl AsRef<Path>,
    plan: Option<&sr_fault::FaultPlan>,
) -> Result<Snapshot> {
    let buf = read_file_bytes(path.as_ref(), plan)?;
    match crate::v2::peek_version(&buf) {
        Some(2) => crate::v2::snapshot_v2_from_bytes(&buf)?.to_snapshot(),
        _ => snapshot_from_bytes(&buf),
    }
}

/// Reads a whole file, optionally through a [`sr_fault::FaultPlan`]'s
/// `read.*` faults. Shared by the v1 and v2 load paths so both see the
/// same injected failures.
pub(crate) fn read_file_bytes(path: &Path, plan: Option<&sr_fault::FaultPlan>) -> Result<Vec<u8>> {
    let file = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    match plan {
        Some(plan) => {
            plan.wrap_read(file).read_to_end(&mut buf)?;
        }
        None => {
            let mut file = file;
            file.read_to_end(&mut buf)?;
        }
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_core::repartition;

    fn sample_snapshot() -> Snapshot {
        let vals: Vec<f64> =
            (0..64).map(|i| 100.0 + (i / 8) as f64 * 0.7 + (i % 8) as f64 * 0.4).collect();
        let mut grid = GridDataset::univariate(8, 8, vals).unwrap();
        grid.set_null(63);
        let out = repartition(&grid, 0.05).unwrap();
        Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Bit-at-a-time reference CRC-32, straight from the polynomial
    /// definition — the oracle both fast paths must match.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_reference_at_every_length() {
        // Pseudo-random bytes; lengths sweep across every dispatch
        // boundary (empty, sub-word tails, the 64-byte kernel threshold,
        // non-multiple-of-16 tails after the kernel).
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 33) as u8
            })
            .collect();
        for len in (0..=300).chain([511, 1024, 1025, 4000, 4096]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "crc32 disagrees with the reference at length {len}"
            );
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Write → read → write must reproduce identical bytes.
        assert_eq!(snapshot_to_bytes(&back), bytes);
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes(&snap);
        // Flipping any single bit anywhere must fail (checksum for payload
        // bytes, checksum mismatch for trailer bytes). Exhaustive over a
        // stride to keep the test fast.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(snapshot_from_bytes(&bad).is_err(), "corruption at byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = snapshot_to_bytes(&sample_snapshot());
        for cut in [0, 1, 5, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(snapshot_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let bytes = snapshot_to_bytes(&sample_snapshot());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        // Re-seal the checksum so the magic check itself is exercised.
        let n = wrong_magic.len();
        let crc = crc32(&wrong_magic[..n - 4]).to_le_bytes();
        wrong_magic[n - 4..].copy_from_slice(&crc);
        assert!(matches!(
            snapshot_from_bytes(&wrong_magic),
            Err(ServeError::Format { offset: 0, .. })
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[6] = 9;
        let crc = crc32(&wrong_version[..n - 4]).to_le_bytes();
        wrong_version[n - 4..].copy_from_slice(&crc);
        assert!(matches!(snapshot_from_bytes(&wrong_version), Err(ServeError::Format { .. })));
    }

    #[test]
    fn file_roundtrip() {
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join(format!("sr_snap_test_{}.snap", std::process::id()));
        save_snapshot(&snap, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, snap);
    }

    #[test]
    fn build_rejects_mismatched_grid() {
        let vals: Vec<f64> = (0..36).map(|i| i as f64).collect();
        let grid = GridDataset::univariate(6, 6, vals).unwrap();
        let out = repartition(&grid, 0.2).unwrap();
        let other = GridDataset::univariate(3, 3, vec![1.0; 9]).unwrap();
        assert!(matches!(
            Snapshot::build(&out.repartitioned, &other, 0.2),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn from_parts_rejects_names_too_long_to_encode() {
        let s = sample_snapshot();
        let long = "x".repeat(u16::MAX as usize + 1);
        let built = Snapshot::from_parts(
            s.theta(),
            s.ifl(),
            s.min_adjacent_variation(),
            s.bounds(),
            vec![long],
            s.agg_types().to_vec(),
            s.integer_attrs().to_vec(),
            s.valid_mask().to_vec(),
            s.partition().clone(),
            s.features().clone(),
            s.adjacency().clone(),
        );
        assert!(matches!(built, Err(ServeError::Invalid(_))));
    }

    #[test]
    fn from_parts_rejects_counts_that_disagree_with_validity() {
        let s = sample_snapshot();
        let f = s.features();
        let rebuild = |counts: Vec<u32>| {
            Snapshot::from_parts(
                s.theta(),
                s.ifl(),
                s.min_adjacent_variation(),
                s.bounds(),
                s.attr_names().to_vec(),
                s.agg_types().to_vec(),
                s.integer_attrs().to_vec(),
                s.valid_mask().to_vec(),
                s.partition().clone(),
                GroupFeatures::from_flat(f.num_attrs(), f.values().to_vec(), counts),
                s.adjacency().clone(),
            )
        };
        assert_eq!(rebuild(f.valid_counts().to_vec()).unwrap(), s);
        // A featured group turned null, and a null group given a member.
        let featured = f.valid_counts().iter().position(|&c| c > 0).unwrap();
        let mut counts = f.valid_counts().to_vec();
        counts[featured] = 0;
        assert!(matches!(rebuild(counts), Err(ServeError::Invalid(_))));
        let null = f.valid_counts().iter().position(|&c| c == 0).expect("sample has a null group");
        let mut counts = f.valid_counts().to_vec();
        counts[null] = 1;
        assert!(matches!(rebuild(counts), Err(ServeError::Invalid(_))));
    }

    #[test]
    fn oversized_feature_table_is_rejected() {
        // An all-null 8×8 grid with a 4096-attribute schema: 64 null
        // groups whose dense table (2 MiB) dwarfs the ~22 KB file.
        let p = 4096;
        let s = Snapshot::from_parts(
            0.05,
            0.0,
            0.0,
            Bounds::unit(),
            vec!["a".into(); p],
            vec![AggType::Avg; p],
            vec![false; p],
            vec![false; 64],
            Partition::identity(8, 8),
            GroupFeatures::from_flat(p, vec![0.0; 64 * p], vec![0; 64]),
            AdjacencyList::from_neighbors(vec![Vec::new(); 64]),
        )
        .unwrap();
        let bytes = snapshot_to_bytes(&s);
        assert!(8 * 64 * p > MAX_TABLE_PER_PAYLOAD_BYTE * bytes.len());
        assert!(matches!(snapshot_from_bytes(&bytes), Err(ServeError::Format { .. })));
    }

    #[test]
    fn failed_atomic_save_leaves_previous_file_intact() {
        let registry = sr_obs::Registry::new();
        let plan = sr_fault::FaultPlan::parse("write.error_rate = 1.0\n", &registry).unwrap();
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join(format!("sr_snap_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("current.snap");
        save_snapshot(&snap, &path).unwrap();
        let good_bytes = std::fs::read(&path).unwrap();
        // The faulty save fails...
        assert!(matches!(save_snapshot_with(&snap, &path, Some(&plan)), Err(ServeError::Io(_))));
        assert!(plan.injected_errors() >= 1);
        // ...but the previous file is byte-identical and no temp junk
        // remains next to it.
        assert_eq!(std::fs::read(&path).unwrap(), good_bytes);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "current.snap")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_premature_eof_is_rejected_cleanly() {
        let registry = sr_obs::Registry::new();
        let plan = sr_fault::FaultPlan::parse("read.eof_rate = 1.0\n", &registry).unwrap();
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join(format!("sr_snap_eof_{}.snap", std::process::id()));
        save_snapshot(&snap, &path).unwrap();
        // The torn read must surface as a structured Format error (the
        // zero bytes that survive the injected EOF are "file too short"),
        // never as a garbage snapshot.
        let result = load_snapshot_with(&path, Some(&plan));
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(result, Err(ServeError::Format { .. }) | Err(ServeError::Checksum { .. })),
            "torn read must be rejected: {result:?}"
        );
        assert_eq!(plan.injected_eofs(), 1);
    }

    #[test]
    fn nan_and_negative_zero_survive() {
        // Bit-exactness must cover non-finite and signed-zero payloads in
        // the run-parameter fields.
        let vals = vec![1.0, 1.0, 1.0, 1.0];
        let grid = GridDataset::univariate(2, 2, vals).unwrap();
        let out = repartition(&grid, 0.05).unwrap();
        let mut snap = Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap();
        snap.theta = -0.0;
        snap.min_adjacent_variation = f64::NAN;
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back.theta.to_bits(), (-0.0f64).to_bits());
        assert!(back.min_adjacent_variation.is_nan());
        assert_eq!(snapshot_to_bytes(&back), bytes);
    }

    #[test]
    fn concurrent_saves_to_one_path_never_tear() {
        // 8 threads × 20 distinct snapshots each, all saved to one path:
        // every save renames its own complete temp file, so the survivor
        // is one of the inputs byte for byte and no temp file remains.
        let dir = std::env::temp_dir().join(format!("sr_snap_race_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("current.snap");
        let base = sample_snapshot();
        let inputs: Vec<Vec<Snapshot>> = (0..8)
            .map(|t| {
                (0..20)
                    .map(|i| {
                        let mut s = base.clone();
                        s.theta = (t * 20 + i) as f64;
                        s
                    })
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for snaps in &inputs {
                let path = &path;
                scope.spawn(move || {
                    for s in snaps {
                        crate::save_snapshot_v2(s, path).unwrap();
                    }
                });
            }
        });
        let stored = std::fs::read(&path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert!(
            inputs.iter().flatten().any(|s| crate::snapshot_to_bytes_v2(s) == stored),
            "the surviving file is not one of the saved snapshots"
        );
        assert!(inputs.iter().flatten().any(|s| *s == loaded));
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
