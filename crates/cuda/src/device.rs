//! The host-side runtime: device memory management, transfers, launches, and
//! the execution timeline that Table 3's "GPU execution time vs CPU–GPU
//! transfer time" columns come from.

use crate::transfer::PcieModel;
use g80_isa::{Kernel, Value};
use g80_sim::{launch_traced, DeviceMemory, GpuConfig, KernelStats, LaunchDims, Served};
use std::cell::RefCell;
use std::marker::PhantomData;

/// Types that can live in device memory (32-bit words, like the register
/// file).
pub trait Word32: Copy {
    fn to_bits(self) -> u32;
    fn from_bits(bits: u32) -> Self;
}

impl Word32 for f32 {
    fn to_bits(self) -> u32 {
        self.to_bits()
    }
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

impl Word32 for u32 {
    fn to_bits(self) -> u32 {
        self
    }
    fn from_bits(bits: u32) -> Self {
        bits
    }
}

impl Word32 for i32 {
    fn to_bits(self) -> u32 {
        self as u32
    }
    fn from_bits(bits: u32) -> Self {
        bits as i32
    }
}

/// A typed allocation in device global memory.
pub struct DeviceBuffer<T: Word32> {
    byte_addr: u32,
    len: u32,
    _t: PhantomData<T>,
}

impl<T: Word32> DeviceBuffer<T> {
    /// Device byte address of the first element.
    pub fn addr(&self) -> u32 {
        self.byte_addr
    }
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len as usize
    }
    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// The buffer's base address as a kernel parameter value.
    pub fn as_param(&self) -> Value {
        Value::from_u32(self.byte_addr)
    }
}

/// Wall-clock accounting of everything the "application" did on the device.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Seconds spent in kernels (simulated GPU time).
    pub kernel_s: f64,
    /// Seconds spent copying host-to-device.
    pub h2d_s: f64,
    /// Seconds spent copying device-to-host.
    pub d2h_s: f64,
    /// Kernel launches performed.
    pub launches: u64,
    /// Total simulated GPU cycles.
    pub kernel_cycles: u64,
    /// Launches answered from the simulator's in-process launch memo cache
    /// (their `kernel_s`/`kernel_cycles` were replayed, not simulated).
    pub memo_hits: u64,
    /// Launches answered from the persistent disk cache tier (replayed from
    /// a prior process's simulation; see [`g80_sim::SimConfig::disk_dir`]).
    pub disk_hits: u64,
    /// The launching context's row-shape counters
    /// ([`g80_sim::row_counters`]) observed when this device last recorded a
    /// kernel: how many warp-instruction executions resolved through
    /// uniform/affine lane-row shapes versus eager full-row evaluation. A
    /// snapshot of totals, like [`g80_sim::LaunchReport`]'s — diff
    /// successive timelines to attribute a window.
    pub rows: g80_sim::RowCounters,
}

impl Timeline {
    /// Total device-side time (kernels + transfers).
    pub fn total_s(&self) -> f64 {
        self.kernel_s + self.h2d_s + self.d2h_s
    }
    /// Fraction of device time spent in kernels (Table 3's "GPU execution
    /// time" column).
    pub fn gpu_fraction(&self) -> f64 {
        let t = self.total_s();
        if t == 0.0 {
            0.0
        } else {
            self.kernel_s / t
        }
    }
    /// Transfer seconds (both directions).
    pub fn transfer_s(&self) -> f64 {
        self.h2d_s + self.d2h_s
    }
    /// Fraction of this device's launches served by any cache tier — the
    /// in-process launch memo or the persistent disk cache (0 when nothing
    /// launched). The context's totals — across devices and including
    /// block-class dedup — live in [`g80_sim::memo_counters`].
    pub fn memo_hit_rate(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            (self.memo_hits + self.disk_hits) as f64 / self.launches as f64
        }
    }
}

/// A simulated GPU with its memory, PCIe link, and timeline.
pub struct Device {
    cfg: GpuConfig,
    mem: DeviceMemory,
    pcie: PcieModel,
    next_free: u32,
    timeline: RefCell<Timeline>,
}

impl Device {
    /// Creates a device with the default G80 configuration and `bytes` of
    /// global memory (the real card had 768 MB; simulations size to fit).
    pub fn new(bytes: u32) -> Self {
        Device::with_config(GpuConfig::geforce_8800_gtx(), bytes)
    }

    /// Creates a device with a custom machine configuration.
    pub fn with_config(cfg: GpuConfig, bytes: u32) -> Self {
        Device {
            cfg,
            mem: DeviceMemory::new(bytes),
            pcie: PcieModel::default(),
            next_free: 0,
            timeline: RefCell::new(Timeline::default()),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Direct access to device memory (tests, texture setup).
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Allocates `len` elements of device memory (256-byte aligned, like
    /// cudaMalloc). Panics on exhaustion, a request past the 32-bit address
    /// space included (`want` saturates): it is out of memory too, not a
    /// wrapped small allocation.
    pub fn alloc<T: Word32>(&mut self, len: usize) -> DeviceBuffer<T> {
        let addr = self.next_free;
        let have = self.mem.len_bytes();
        let bytes = u32::try_from(len).ok().and_then(|n| n.checked_mul(4));
        let end = bytes.and_then(|b| addr.checked_add(b));
        let Some(end) = end.filter(|&end| end <= have) else {
            let want = bytes.unwrap_or(u32::MAX);
            panic!("OutOfMemory: device out of memory: want {want} B at {addr}, have {have} B");
        };
        self.next_free = end.div_ceil(256) * 256;
        DeviceBuffer {
            byte_addr: addr,
            len: len as u32,
            _t: PhantomData,
        }
    }

    /// Copies host data to a device buffer (cudaMemcpyHostToDevice),
    /// charging PCIe time. Panics on an oversized copy.
    pub fn copy_to_device<T: Word32>(&self, buf: &DeviceBuffer<T>, data: &[T]) {
        let (len, capacity) = (data.len(), buf.len());
        assert!(
            len <= capacity,
            "OversizedCopy: h2d copy larger than buffer ({len} > {capacity} elements)"
        );
        self.mem
            .write_slice(buf.byte_addr, data.iter().map(|v| v.to_bits()));
        self.timeline.borrow_mut().h2d_s += self.pcie.transfer_time(len as u64 * 4);
    }

    /// Copies a device buffer back to the host (cudaMemcpyDeviceToHost),
    /// charging PCIe time. It cannot fail: the buffer's bounds were checked
    /// at allocation.
    pub fn copy_from_device<T: Word32>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        let words = self.mem.read_slice(buf.byte_addr, buf.len());
        let out = words.map(T::from_bits).collect();
        self.timeline.borrow_mut().d2h_s += self.pcie.transfer_time(buf.len as u64 * 4);
        out
    }

    /// Uploads the constant bank (cudaMemcpyToSymbol). Panics on overflow.
    pub fn set_const<T: Word32>(&mut self, data: &[T]) {
        let (want, have) = (data.len() * 4, self.cfg.const_mem_bytes as usize);
        assert!(
            want <= have,
            "ConstOverflow: constant bank overflow ({want} B > {have} B)"
        );
        self.mem.const_bank = data.iter().map(|v| v.to_bits()).collect();
        self.timeline.borrow_mut().h2d_s += self.pcie.transfer_time(data.len() as u64 * 4);
    }

    /// Binds a buffer as the 1D texture (cudaBindTexture).
    pub fn bind_texture<T: Word32>(&mut self, buf: &DeviceBuffer<T>) {
        self.mem.tex_binding = Some((buf.byte_addr, buf.len * 4));
    }

    /// Launches a kernel and blocks until completion, accumulating kernel
    /// time on the timeline.
    pub fn launch(
        &self,
        kernel: &Kernel,
        grid: (u32, u32),
        block: (u32, u32, u32),
        params: &[Value],
    ) -> Result<KernelStats, g80_sim::LaunchError> {
        let (stats, served) = launch_traced(
            &self.cfg,
            kernel,
            LaunchDims { grid, block },
            params,
            &self.mem,
        )?;
        self.record_kernel(&stats, served);
        Ok(stats)
    }

    /// Accounts one completed kernel on the timeline (shared by [`launch`]
    /// and [`launch_batch`]).
    fn record_kernel(&self, stats: &KernelStats, served: Served) {
        let mut t = self.timeline.borrow_mut();
        t.kernel_s += stats.elapsed;
        t.kernel_cycles += stats.cycles;
        t.launches += 1;
        t.memo_hits += (served == Served::Memo) as u64;
        t.disk_hits += (served == Served::Disk) as u64;
        t.rows = g80_sim::row_counters();
    }

    /// The accumulated execution timeline.
    pub fn timeline(&self) -> Timeline {
        self.timeline.borrow().clone()
    }

    /// Resets the timeline (between experiments).
    pub fn reset_timeline(&self) {
        *self.timeline.borrow_mut() = Timeline::default();
    }
}

/// One entry of a [`launch_batch`]: a kernel launch bound to the device it
/// runs on. Entries may target different devices (a sweep typically builds
/// one device per configuration) as long as all devices share one
/// [`GpuConfig`].
#[derive(Clone, Copy)]
pub struct BatchLaunch<'a> {
    pub device: &'a Device,
    pub kernel: &'a Kernel,
    pub grid: (u32, u32),
    pub block: (u32, u32, u32),
    pub params: &'a [Value],
}

/// Launches every entry through the simulator's batched path
/// ([`g80_sim::launch_batch`]): cache hits resolve on the caller, misses
/// simulate concurrently on the shared worker pool. Results come back in
/// entry order and each entry's timeline is charged exactly as a serial
/// [`Device::launch`] loop would.
pub fn launch_batch(entries: &[BatchLaunch]) -> Vec<Result<KernelStats, g80_sim::LaunchError>> {
    if entries.is_empty() {
        return Vec::new();
    }
    let cfg = entries[0].device.config();
    assert!(
        entries.iter().all(|e| e.device.config() == cfg),
        "launch_batch entries must share one GpuConfig"
    );
    let specs: Vec<g80_sim::LaunchSpec> = entries
        .iter()
        .map(|e| g80_sim::LaunchSpec {
            kernel: e.kernel,
            dims: LaunchDims {
                grid: e.grid,
                block: e.block,
            },
            params: e.params,
            mem: e.device.memory(),
        })
        .collect();
    let results = g80_sim::launch_batch_traced(cfg, &specs);
    for (e, r) in entries.iter().zip(&results) {
        if let Ok((stats, served)) = r {
            e.device.record_kernel(stats, *served);
        }
    }
    results
        .into_iter()
        .map(|r| r.map(|(stats, _)| stats))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::builder::KernelBuilder;
    use g80_sim::{SimConfig, SimContext};

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut d = Device::new(1 << 16);
        let a = d.alloc::<f32>(10);
        let b = d.alloc::<f32>(100);
        assert_eq!(a.addr() % 256, 0);
        assert_eq!(b.addr() % 256, 0);
        assert!(b.addr() >= a.addr() + 40);
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
    }

    #[test]
    fn oversized_requests_are_out_of_memory_not_wrapped() {
        SimContext::new(SimConfig::default()).enter(|| {
            let mut d = Device::new(1 << 16);
            let _ = d.alloc::<f32>(10);
            for len in [1 << 30, usize::MAX, (1 << 32) + 16] {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    d.alloc::<f32>(len).len()
                }));
                let payload = caught.expect_err(&format!("len {len} allocated"));
                assert_eq!(
                    g80_sim::fault::payload_str(payload.as_ref()),
                    Some(
                        "OutOfMemory: device out of memory: want 4294967295 B at 256, have 65536 B"
                    ),
                    "len {len}"
                );
            }
            assert_eq!(d.alloc::<f32>(16).addr(), 256);
        });
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn oom_panics() {
        let mut d = Device::new(1024);
        let _ = d.alloc::<f32>(1000);
    }

    #[test]
    fn roundtrip_preserves_data() {
        let mut d = Device::new(4096);
        let buf = d.alloc::<f32>(16);
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
        d.copy_to_device(&buf, &data);
        assert_eq!(d.copy_from_device(&buf), data);

        let ibuf = d.alloc::<i32>(4);
        d.copy_to_device(&ibuf, &[-1, 2, -3, 4]);
        assert_eq!(d.copy_from_device(&ibuf), vec![-1, 2, -3, 4]);
    }

    #[test]
    fn timeline_accumulates() {
        let mut d = Device::new(1 << 16);
        let buf = d.alloc::<f32>(1024);
        d.copy_to_device(&buf, &vec![1.0f32; 1024]);

        let mut b = KernelBuilder::new("scale");
        let p = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let a = b.iadd(byte, p);
        let v = b.ld_global(a, 0);
        let w = b.fmul(v, 3.0f32);
        b.st_global(a, 0, w);
        let k = b.build();

        let stats = d
            .launch(&k, (4, 1), (256, 1, 1), &[buf.as_param()])
            .unwrap();
        assert!(stats.cycles > 0);
        let out = d.copy_from_device(&buf);
        assert!(out.iter().all(|&x| x == 3.0));

        let t = d.timeline();
        assert_eq!(t.launches, 1);
        assert!(t.kernel_s > 0.0);
        assert!(t.h2d_s > 0.0);
        assert!(t.d2h_s > 0.0);
        assert!(t.gpu_fraction() > 0.0 && t.gpu_fraction() < 1.0);

        d.reset_timeline();
        assert_eq!(d.timeline().launches, 0);
    }

    #[test]
    fn batch_launch_matches_serial_and_charges_each_timeline() {
        let mut b = KernelBuilder::new("scale");
        let p = b.param();
        let tid = b.tid_x();
        let ntid = b.ntid_x();
        let cta = b.ctaid_x();
        let i = b.imad(cta, ntid, tid);
        let byte = b.shl(i, 2u32);
        let a = b.iadd(byte, p);
        let v = b.ld_global(a, 0);
        let w = b.fmul(v, 3.0f32);
        b.st_global(a, 0, w);
        let k = b.build();

        let mut devices = Vec::new();
        let mut bufs = Vec::new();
        for _ in 0..3 {
            let mut d = Device::new(1 << 16);
            let buf = d.alloc::<f32>(512);
            d.copy_to_device(&buf, &vec![1.0f32; 512]);
            devices.push(d);
            bufs.push(buf);
        }
        let params: Vec<[Value; 1]> = bufs.iter().map(|b| [b.as_param()]).collect();
        let entries: Vec<BatchLaunch> = devices
            .iter()
            .zip(&params)
            .map(|(device, params)| BatchLaunch {
                device,
                kernel: &k,
                grid: (2, 1),
                block: (256, 1, 1),
                params,
            })
            .collect();
        let batched = launch_batch(&entries);

        let mut serial_dev = Device::new(1 << 16);
        let sbuf = serial_dev.alloc::<f32>(512);
        serial_dev.copy_to_device(&sbuf, &vec![1.0f32; 512]);
        let serial = serial_dev
            .launch(&k, (2, 1), (256, 1, 1), &[sbuf.as_param()])
            .unwrap();

        for (d, (buf, r)) in devices.iter().zip(bufs.iter().zip(&batched)) {
            let stats = r.as_ref().unwrap();
            assert_eq!(stats.cycles, serial.cycles);
            assert!(d.copy_from_device(buf).iter().all(|&x| x == 3.0));
            let t = d.timeline();
            assert_eq!(t.launches, 1);
            assert_eq!(t.kernel_cycles, serial.cycles);
        }
        assert!(launch_batch(&[]).is_empty());
    }

    #[test]
    fn timeline_counts_memo_hits() {
        // The memo key digests the full pre-launch memory image, so the
        // first repeat differs (the output region went from zeros to
        // results) and re-records; from then on the image is a fixed point
        // and every further repeat must hit the cache.
        let mut b = KernelBuilder::new("scale_oop");
        let src = b.param();
        let dst = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let sa = b.iadd(byte, src);
        let v = b.ld_global(sa, 0);
        let w = b.fmul(v, 7.5f32);
        let da = b.iadd(byte, dst);
        b.st_global(da, 0, w);
        let k = b.build();

        let mut d = Device::new(1 << 14);
        let x = d.alloc::<f32>(128);
        let y = d.alloc::<f32>(128);
        d.copy_to_device(&x, &vec![2.0f32; 128]);
        let params = [x.as_param(), y.as_param()];
        // A context of its own: memo on, no disk tier, whatever the
        // environment configured the global one with.
        let (first, second, third) = SimContext::new(SimConfig::default()).enter(|| {
            let run = || d.launch(&k, (1, 1), (128, 1, 1), &params).unwrap();
            (run(), run(), run())
        });
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.cycles, third.cycles);
        assert!(d.copy_from_device(&y).iter().all(|&v| v == 15.0));

        let t = d.timeline();
        assert_eq!(t.launches, 3);
        assert_eq!(
            t.memo_hits, 1,
            "fixed-point repeat must replay from the memo cache"
        );
        assert!((t.memo_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn const_upload_and_texture_binding() {
        let mut d = Device::new(4096);
        d.set_const(&[1.0f32, 2.0, 3.0]);
        assert_eq!(d.memory().read_const(4).as_f32(), 2.0);
        let buf = d.alloc::<f32>(8);
        d.bind_texture(&buf);
        assert_eq!(d.memory().tex_binding, Some((buf.addr(), 32)));
    }

    #[test]
    #[should_panic(expected = "constant bank overflow")]
    fn const_overflow_panics() {
        let mut d = Device::new(64);
        d.set_const(&vec![0u32; 20000]);
    }
}
