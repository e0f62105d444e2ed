//! Small measurement helpers: quantiles, process counters read from
//! `/proc`, and the order-independent result fingerprint.

use relational::Value;

/// Nearest-rank quantile of `values` (`q` in `0..=1`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns freed heap pages to the operating system and restarts the
/// peak-RSS count at the current resident size, so that `peak_rss_mb`
/// covers the served store and the timed window — not the oracle's
/// temporaries or the discarded set-ups, whose freed-but-resident pages
/// otherwise decide the peak by how the allocator happened to place them.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases heap
        // memory that is already free; glibc documents it as safe to call
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets VmHWM to the current RSS (Linux >= 4.0).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU time of this process (all threads), in milliseconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it are
    // space-separated, utime and stime being fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}

/// Order-independent identity of a result set: row count plus the wrapping
/// sum of per-row FNV-1a hashes over the values laid out in `columns` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub checksum: u64,
}

fn fnv_row(row: &[&Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in row {
        match v {
            Value::Int(i) => {
                eat(&[0]);
                eat(&i.to_le_bytes());
            }
            Value::Str(s) => {
                eat(&[1]);
                eat(&(s.len() as u64).to_le_bytes());
                eat(s.as_bytes());
            }
        }
    }
    h
}

/// Where each `want` column sits in `have`; `None` when the column sets
/// differ.
pub fn permutation(have: &[String], want: &[String]) -> Option<Vec<usize>> {
    if have.len() != want.len() {
        return None;
    }
    want.iter()
        .map(|c| have.iter().position(|h| h == c))
        .collect()
}

/// Fingerprints `rows` (laid out per `have`) after permuting their columns
/// into the `want` order. Returns `None` when the column sets differ.
pub fn fingerprint(have: &[String], rows: &[Vec<Value>], want: &[String]) -> Option<Fingerprint> {
    let perm = permutation(have, want)?;
    let mut checksum = 0u64;
    let mut buf: Vec<&Value> = Vec::with_capacity(perm.len());
    for row in rows {
        buf.clear();
        buf.extend(perm.iter().map(|&p| &row[p]));
        checksum = checksum.wrapping_add(fnv_row(&buf));
    }
    Some(Fingerprint {
        rows: rows.len(),
        checksum,
    })
}

/// A splitmix64 step: the benchmark's own seeded stream for request mixes
/// and write batches.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `0..n` from a splitmix stream.
pub fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

/// Fisher-Yates over a splitmix stream.
pub fn shuffle<T>(v: &mut [T], state: &mut u64) {
    for i in (1..v.len()).rev() {
        v.swap(i, below(state, i + 1));
    }
}
