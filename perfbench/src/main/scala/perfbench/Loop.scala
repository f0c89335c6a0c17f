package perfbench

import java.lang.management.ManagementFactory

/** Closed loop with one client: the next query is sent when the previous
  * one returns. Each call is timed from the call until the top-k is in hand;
  * the answer check runs after the clock stops. Every `ProbeEveryNanos` the
  * loop reads the CPU speed probe between two calls, and each call's time is
  * also kept scaled to the reference speed ([[Clock]]), using the median of
  * the last three probe readings.
  */
final class Loop(nQueries: Int) {
  private val ProbeEveryNanos = 250000000L
  private var raw = new Array[Long](1 << 12)
  private var scaled = new Array[Double](1 << 12)
  private var completed = 0
  private var busyNanos = 0L
  private var busyScaled = 0.0
  private val factors = scala.collection.mutable.ArrayBuffer.empty[Double]
  private val recent = new Array[Double](3)
  private var probes = 0
  private var factor = 1.0
  var attempted = 0L
  var failed = 0L
  private var next = 0
  val errors = scala.collection.mutable.LinkedHashSet.empty[String]

  private def probe(): Unit = {
    val f = Clock.factor()
    factors += f
    recent(probes % recent.length) = f
    probes += 1
    factor = Stats.median(recent.take(math.min(probes, recent.length)))
  }

  /** Runs queries for `seconds`, cycling through the query list and
    * continuing where the previous call stopped. `ask(qi)` returns the
    * answer; `check(qi, answer)` returns an error message or null.
    */
  def run[A](seconds: Double)(ask: Int => A)(check: (Int, A) => String): Unit = {
    val budget = (seconds * 1e9).toLong
    val start = System.nanoTime()
    var nextProbe = start
    while (System.nanoTime() - start < budget) {
      if (System.nanoTime() >= nextProbe) { probe(); nextProbe = System.nanoTime() + ProbeEveryNanos }
      val qi = next
      next = (next + 1) % nQueries
      attempted += 1
      val t0 = System.nanoTime()
      val answer = try ask(qi) catch {
        case e: Exception => failed += 1; errors += s"query $qi: $e"; null.asInstanceOf[A]
      }
      val t1 = System.nanoTime()
      val f = factor
      if (answer != null) {
        if (completed == raw.length) {
          raw = java.util.Arrays.copyOf(raw, completed * 2)
          scaled = java.util.Arrays.copyOf(scaled, completed * 2)
        }
        raw(completed) = t1 - t0
        scaled(completed) = (t1 - t0) * f
        completed += 1
        val err = check(qi, answer)
        if (err != null) { failed += 1; errors += s"query $qi: $err" }
      }
      busyNanos += t1 - t0
      busyScaled += (t1 - t0) * f
    }
  }

  /** Latencies of the queries that returned, in ns at the reference speed. */
  def latencyNanos: Array[Double] = scaled.take(completed)

  /** The same latencies as measured. */
  def rawLatencyNanos: Array[Double] = raw.iterator.take(completed).map(_.toDouble).toArray

  /** Clock factors read during the loop. */
  def clockFactors: Array[Double] = factors.toArray

  /** Queries per second in consecutive one-second stretches of measured
    * time (raw), to tell a steady run from one with bursts of interference.
    */
  def windowQps: Seq[Double] = {
    val out = Seq.newBuilder[Double]
    var busy = 0L
    var count = 0
    var i = 0
    while (i < completed) {
      busy += raw(i); count += 1
      if (busy >= 1000000000L) { out += count * 1e9 / busy; busy = 0; count = 0 }
      i += 1
    }
    out.result()
  }

  /** Completed queries per second of measured time, at the reference
    * clock. The measured time is the time spent inside the calls, so the
    * client's own answer checks between calls are not counted.
    */
  def qps: Double = if (busyScaled == 0) 0.0 else (attempted - failed) * 1e9 / busyScaled

  /** The same, as measured. */
  def rawQps: Double = if (busyNanos == 0) 0.0 else (attempted - failed) * 1e9 / busyNanos
}

object Loop {

  /** The measured part of a traced run: short untraced and traced stretches
    * in turn, so both see the same host. The untraced loop is the baseline
    * for the tracing overhead and for the time no span accounts for.
    */
  def alternate[A](seconds: Double, untraced: Loop, traced: Loop)(ask: Int => A, askTraced: Int => A)(
      check: (Int, A) => String): Unit = {
    val stretches = math.max(1, (seconds / Setup.TraceChunkSeconds / 2).round.toInt)
    (0 until stretches).foreach { _ =>
      untraced.run(seconds / stretches / 2)(ask)(check)
      traced.run(seconds / stretches / 2)(askTraced)(check)
    }
  }
}

/** Retained heap after full collections: a cross-check of the index size. */
object Heap {

  /** Bytes live on the heap after full collections. */
  def retained(): Long = {
    val mx = ManagementFactory.getMemoryMXBean
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    mx.getHeapMemoryUsage.getUsed
  }
}
