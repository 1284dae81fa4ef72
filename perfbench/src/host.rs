//! Host metadata recorded with every run, and the clocks and speed probe
//! the host-time metrics are measured with.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Steal and total CPU time of this machine so far, in clock ticks, from
/// the `cpu` line of `/proc/stat`; `None` where it is not reported.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// A compute calibration of this host right now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Seconds one thread takes for a fixed register-only loop.
    pub serial_s: f64,
    /// How well two threads of that loop scale: 2.0 on two idle cores,
    /// less when co-tenants take CPU time. The figure `perf_throughput`
    /// records as `parallel_scaling_2t`, from the same loop.
    pub parallel_scaling_2t: f64,
}

/// Measures the [`Calibration`].
pub fn calibrate() -> Calibration {
    fn burn(n: u64) -> u64 {
        let mut x = 1u64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        x
    }
    const N: u64 = 150_000_000;
    let t0 = Instant::now();
    std::hint::black_box(burn(std::hint::black_box(N)));
    let serial = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| std::hint::black_box(burn(std::hint::black_box(N))));
        std::hint::black_box(burn(std::hint::black_box(N)));
    });
    let par = t1.elapsed().as_secs_f64();
    Calibration {
        serial_s: serial,
        parallel_scaling_2t: 2.0 * serial / par.max(1e-12),
    }
}

/// Probe slices taken on each side of a timed piece of work.
const PROBE_SLICES: usize = 2;
/// Entries of the probe's table: 256 KiB of `u64`, inside a core's L2.
const PROBE_TABLE: usize = 1 << 15;
/// Nodes of the probe's linked list: 1 MiB of 64-byte nodes.
const PROBE_NODES: usize = 1 << 14;
/// A typical probe slice time on the reference host (a 2-vCPU x86_64 Xeon
/// VM, at a quiet moment); [`host_speed`] divides by it. It only sets the
/// scale of the scaled times and must never change, or figures from
/// before and after the change stop being comparable.
pub const REFERENCE_SLICE_NS: f64 = 400_000.0;

/// One of the probe's 512 distinct small functions, called through a
/// table so that the probe, like the simulator, runs more code than the
/// L1 instruction cache holds and branches indirectly.
#[inline(never)]
fn code_step<const K: u64>(x: u64, y: u64) -> u64 {
    let k = K.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut z = x.wrapping_mul(k) ^ y.rotate_left((K % 61 + 1) as u32);
    if z & (1 << (K % 7)) == 0 {
        z = z.wrapping_add(k >> 3).rotate_right((K % 59 + 1) as u32);
    } else {
        z = (z ^ (k << 5)).wrapping_mul(k ^ 0xff51_afd7_ed55_8ccd);
    }
    if (z >> 17) & 3 == 1 {
        z = z.wrapping_sub(y ^ K);
    }
    z
}

macro_rules! code_table {
    ($($k:literal)*) => { [$(code_step::<$k> as fn(u64, u64) -> u64),*] };
}

static CODE: [fn(u64, u64) -> u64; 512] = code_table!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
    62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79 80 81 82 83 84 85 86 87 88 89 90
    91 92 93 94 95 96 97 98 99 100 101 102 103 104 105 106 107 108 109 110 111 112 113 114
    115 116 117 118 119 120 121 122 123 124 125 126 127 128 129 130 131 132 133 134 135 136
    137 138 139 140 141 142 143 144 145 146 147 148 149 150 151 152 153 154 155 156 157 158
    159 160 161 162 163 164 165 166 167 168 169 170 171 172 173 174 175 176 177 178 179 180
    181 182 183 184 185 186 187 188 189 190 191 192 193 194 195 196 197 198 199 200 201 202
    203 204 205 206 207 208 209 210 211 212 213 214 215 216 217 218 219 220 221 222 223 224
    225 226 227 228 229 230 231 232 233 234 235 236 237 238 239 240 241 242 243 244 245 246
    247 248 249 250 251 252 253 254 255 256 257 258 259 260 261 262 263 264 265 266 267 268
    269 270 271 272 273 274 275 276 277 278 279 280 281 282 283 284 285 286 287 288 289 290
    291 292 293 294 295 296 297 298 299 300 301 302 303 304 305 306 307 308 309 310 311 312
    313 314 315 316 317 318 319 320 321 322 323 324 325 326 327 328 329 330 331 332 333 334
    335 336 337 338 339 340 341 342 343 344 345 346 347 348 349 350 351 352 353 354 355 356
    357 358 359 360 361 362 363 364 365 366 367 368 369 370 371 372 373 374 375 376 377 378
    379 380 381 382 383 384 385 386 387 388 389 390 391 392 393 394 395 396 397 398 399 400
    401 402 403 404 405 406 407 408 409 410 411 412 413 414 415 416 417 418 419 420 421 422
    423 424 425 426 427 428 429 430 431 432 433 434 435 436 437 438 439 440 441 442 443 444
    445 446 447 448 449 450 451 452 453 454 455 456 457 458 459 460 461 462 463 464 465 466
    467 468 469 470 471 472 473 474 475 476 477 478 479 480 481 482 483 484 485 486 487 488
    489 490 491 492 493 494 495 496 497 498 499 500 501 502 503 504 505 506 507 508 509 510
    511
);

/// A node of the probe's linked list, one cache line.
struct Node {
    next: u32,
    value: u64,
    _pad: [u64; 6],
}

/// The probe's working memory, kept across probes so no probe pays for
/// allocating or faulting it in.
struct Probe {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    nodes: Vec<Node>,
    at: usize,
}

impl Probe {
    fn new() -> Self {
        // The list visits every node once, in an order drawn from a fixed
        // xorshift stream.
        let mut order: Vec<usize> = (0..PROBE_NODES).collect();
        let mut r = 0x2545_f491_4f6c_dd1du64;
        for i in (1..PROBE_NODES).rev() {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            order.swap(i, (r % (i as u64 + 1)) as usize);
        }
        let mut nodes: Vec<Node> = (0..PROBE_NODES)
            .map(|i| Node {
                next: 0,
                value: i as u64,
                _pad: [0; 6],
            })
            .collect();
        for (i, &n) in order.iter().enumerate() {
            nodes[n].next = order[(i + 1) % PROBE_NODES] as u32;
        }
        Self {
            table: vec![0; PROBE_TABLE],
            heap: BinaryHeap::with_capacity(64),
            nodes,
            at: 0,
        }
    }

    /// One slice of fixed work in four parts, each a kind of work a cycle
    /// simulator does: register arithmetic with six independent chains; a
    /// data-dependent walk over an L2-sized table with a branch on what it
    /// finds and a small event heap (tag lookups, event queues); calls
    /// through a table of 512 distinct functions (more code than the L1
    /// instruction cache holds, indirect branches); and a walk down a
    /// 1 MiB linked list (pointer chasing). The calls and the list walk
    /// take most of the time. A co-tenant slows each part by a different
    /// amount, as it slows different parts of the simulator differently,
    /// so the mix does not rest on any one of them. The probe is the
    /// benchmark's own code, so no change to the program moves it.
    fn slice(&mut self) -> u64 {
        let (mut a, mut b, mut c, mut d, mut e, mut f) = (1u64, 2u64, 3u64, 4u64, 5u64, 6u64);
        for i in 0..std::hint::black_box(25_000u64) {
            a = a.wrapping_add(i ^ b);
            b = b.wrapping_add(i ^ c);
            c = c.wrapping_add(i ^ d);
            d = d.wrapping_add(i ^ e);
            e = e.wrapping_add(i ^ f);
            f = f.wrapping_add(i ^ a);
        }
        let mut acc = a ^ b ^ c ^ d ^ e ^ f;

        let (table, heap) = (&mut self.table, &mut self.heap);
        heap.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..1_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = ((x >> 20) ^ acc) as usize & (PROBE_TABLE - 1);
            let v = table[i];
            if v & 1 == 0 {
                table[i] = v.wrapping_add(x | 1);
                acc = acc.rotate_left(5) ^ v;
            } else {
                table[i] = v ^ (x >> 7);
                acc = acc.wrapping_add(v >> 3);
            }
            heap.push(Reverse(step + (x >> 58)));
            if heap.len() > 32 {
                acc ^= heap.pop().map_or(0, |Reverse(t)| t);
            }
        }

        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            acc = CODE[((x >> 33) ^ acc) as usize & 511](x, acc);
        }

        let mut at = self.at;
        for _ in 0..750 {
            let n = &mut self.nodes[at];
            n.value = n.value.wrapping_add(acc);
            acc = acc.rotate_left(3) ^ n.value;
            at = n.next as usize;
        }
        self.at = at;
        acc
    }

    /// [`PROBE_SLICES`] slice times in ns, by this thread's CPU clock.
    fn slices(&mut self) -> Vec<f64> {
        (0..PROBE_SLICES)
            .map(|_| {
                let t0 = CpuClock::Thread.now();
                std::hint::black_box(self.slice());
                (CpuClock::Thread.now() - t0) * 1e9
            })
            .collect()
    }
}

thread_local! {
    static PROBES: RefCell<Vec<Probe>> = const { RefCell::new(Vec::new()) };
}

/// Probe slice times (ns) on `probes.len()` threads at once.
fn sample(probes: &mut [Probe]) -> Vec<f64> {
    let (first, rest) = probes.split_first_mut().expect("at least one probe");
    std::thread::scope(|s| {
        let others: Vec<_> = rest.iter_mut().map(|p| s.spawn(|| p.slices())).collect();
        let mut v = first.slices();
        for h in others {
            v.extend(h.join().expect("a probe thread panicked"));
        }
        v
    })
}

/// How slow the host ran compared with the reference host: the median of
/// probe slice times over [`REFERENCE_SLICE_NS`]. 1 on the reference
/// host, 1.5 when co-tenants slow the probe by half; 1 when nothing was
/// probed.
pub fn host_speed(slices_ns: &[f64]) -> f64 {
    if slices_ns.is_empty() {
        return 1.0;
    }
    crate::stats::median(slices_ns) / REFERENCE_SLICE_NS
}

/// A CPU-time clock: what the kernel charged to this thread, or to the
/// whole process, while it ran.
///
/// Unlike wall time it leaves out the time the hypervisor gave this
/// machine's CPUs to other guests (steal time, up to a third of all time
/// on a busy shared host), and time this thread waited for a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuClock {
    /// The calling thread.
    Thread,
    /// Every thread of the process, those that have ended included.
    Process,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl CpuClock {
    /// CPU time charged so far, in seconds.
    pub fn now(self) -> f64 {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let id = match self {
            Self::Process => 2, // CLOCK_PROCESS_CPUTIME_ID
            Self::Thread => 3,  // CLOCK_THREAD_CPUTIME_ID
        };
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) and both clock ids always exist there.
        let rc = unsafe { clock_gettime(id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
impl CpuClock {
    /// Wall time since the first call: elsewhere no CPU clock is read.
    pub fn now(self) -> f64 {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

/// A piece of work timed between two probes.
#[derive(Debug, Clone)]
pub struct Probed<R> {
    /// What the work returned.
    pub value: R,
    /// Its wall time in ms.
    pub ms: f64,
    /// Its CPU time in ms (see [`CpuClock`]).
    pub cpu_ms: f64,
    /// The CPU times (ns) of the probe slices taken just before and just
    /// after it.
    pub probe_ns: Vec<f64>,
}

/// Runs `f` between two probes. Work on this thread alone (`threads` = 1)
/// is charged by the thread clock; work that runs on `threads` threads of
/// its own, with nothing else running in the process, by the process
/// clock, and its probes run on that many threads at once so they sample
/// every CPU the work uses.
pub fn probed_on<R>(threads: usize, f: impl FnOnce() -> R) -> Probed<R> {
    let clock = if threads > 1 {
        CpuClock::Process
    } else {
        CpuClock::Thread
    };
    let mut probes = PROBES.with(|p| std::mem::take(&mut *p.borrow_mut()));
    probes.resize_with(threads.max(1), Probe::new);
    let mut probe_ns = sample(&mut probes);
    let (t0, c0) = (Instant::now(), clock.now());
    let value = f();
    let (ms, cpu_ms) = (t0.elapsed().as_secs_f64() * 1e3, (clock.now() - c0) * 1e3);
    probe_ns.extend(sample(&mut probes));
    PROBES.with(|p| *p.borrow_mut() = probes);
    Probed {
        value,
        ms,
        cpu_ms,
        probe_ns,
    }
}

/// [`probed_on`] for work on this thread alone.
pub fn probed<R>(f: impl FnOnce() -> R) -> Probed<R> {
    probed_on(1, f)
}
