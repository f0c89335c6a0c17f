package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}

/** Timing and reporting utilities shared by the per-table bench harnesses
  * and the `jobs/` entrypoints.
  */
object BenchUtil {

  /** Sink defeating dead-code elimination of benchmarked kernels. */
  @volatile var blackhole: Double = 0.0

  def consume(x: Double): Unit = blackhole += x

  /** Time `f` adaptively: batch inner iterations until one timed batch takes
    * at least `minBatchNanos`, then report median per-iteration nanos of
    * `reps` batches. Stabilizes sub-millisecond kernels against timer noise.
    */
  def timePerOp(minBatchNanos: Long = 10_000_000L, reps: Int = 5)(f: => Unit): Double = {
    var batch = 1
    var t = timeBatch(batch)(f)
    while (t < minBatchNanos && batch < (1 << 24)) {
      batch *= 2
      t = timeBatch(batch)(f)
    }
    val times = new Array[Double](reps)
    var i = 0
    while (i < reps) { times(i) = timeBatch(batch)(f) / batch; i += 1 }
    java.util.Arrays.sort(times)
    times(reps / 2)
  }

  private def timeBatch(batch: Int)(f: => Unit): Double = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < batch) { f; i += 1 }
    (System.nanoTime() - t0).toDouble
  }

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty)
    math.exp(xs.map(math.log).sum / xs.length)
  }

  def percentile(sorted: IndexedSeq[Double], p: Double): Double = {
    require(sorted.nonEmpty)
    val idx = math.min(sorted.length - 1, math.max(0, (p * (sorted.length - 1)).round.toInt))
    sorted(idx)
  }

  /** Render rows as a GitHub-flavored markdown table. */
  def markdownTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(header.mkString("| ", " | ", " |\n"))
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.toString
  }

  /** Print a result section and persist it under bench_results/ so
    * EXPERIMENTS.md numbers can be regenerated and diffed.
    */
  def report(name: String, content: String): Unit = {
    val banner = s"\n===== $name =====\n$content"
    println(banner)
    val dir = Paths.get("bench_results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"$name.md"), content.getBytes("UTF-8"),
                StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }

  def f1(x: Double): String = f"$x%.1f"
  def f2(x: Double): String = f"$x%.2f"
}
