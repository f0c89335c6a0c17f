package perfbench

/** How fast the host's CPU runs right now, relative to a fixed reference.
  *
  * The benchmark runs on a shared 4-vCPU guest. The speed one of its cores
  * delivers moves by 20–40% over seconds to minutes, as other tenants'
  * load changes the clock and competes for the core's execution ports
  * (through its hyperthread sibling). The queries slow down and speed up
  * with it. The probe is eight independent float multiply-add chains on
  * L1-resident data: they keep the floating-point ports busy, so the time
  * they take grows both with a lower clock and with a busy sibling. In
  * one-second windows of 20 s runs, the query rate followed this probe with
  * correlation 0.69–0.90 on the IVF workloads. A single dependent chain,
  * which sees only the clock, got 0.13–0.75.
  *
  * Query times (and so `qps` and the latency percentiles) are reported at
  * the reference speed: each is multiplied by `factor`, the reference probe
  * time over the probe time read next to it. The raw times go into the
  * results file.
  */
object Clock {

  /** Probe time (ns) that defines the reference speed: about the median
    * probe on the host the benchmark was tuned on. Any constant would do;
    * this one keeps scaled times close to raw ones there.
    */
  val ReferenceNanos = 64000.0

  private val xs = Array.tabulate(4096)(i => 1f + (i % 5) * 1e-3f)
  @volatile private var sink = 0f

  /** One probe: the shortest of five runs, so an interrupt during one run
    * does not count.
    */
  def probeNanos(): Long = {
    var best = Long.MaxValue
    var rep = 0
    while (rep < 5) {
      val t0 = System.nanoTime()
      var a0, a1, a2, a3, a4, a5, a6, a7 = 0f
      var r = 0
      while (r < 4) {
        var i = 0
        while (i < xs.length) {
          val x = xs(i)
          a0 = a0 * 0.999f + x; a1 = a1 * 0.998f + x; a2 = a2 * 0.997f + x; a3 = a3 * 0.996f + x
          a4 = a4 * 0.995f + x; a5 = a5 * 0.994f + x; a6 = a6 * 0.993f + x; a7 = a7 * 0.992f + x
          i += 1
        }
        r += 1
      }
      best = math.min(best, System.nanoTime() - t0)
      sink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
      rep += 1
    }
    best
  }

  /** Multiplier that takes a time measured now to the reference speed. */
  def factor(): Double = ReferenceNanos / probeNanos()

  /** Compiles the probe before its first reading counts. */
  def warm(): Unit = (0 until 200).foreach(_ => probeNanos())
}
