//! Traced benchmark runs (`--trace 1`): per-layer metrics, with a
//! counting global allocator behind the `*.allocs` metrics.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main(true));
}
