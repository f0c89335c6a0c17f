package perfbench

import java.io.{File, PrintWriter}

/** Command-line options. `outDir` receives the results file and the trace. */
final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, outDir: File)

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
         need("trace") match { case "0" => false; case "1" => true; case t => sys.error(s"--trace $t") },
         new File(need("out")))
  }
}

/** How set-up is measured and how long the JIT gets before the clock runs. */
object Setup {

  /** Timed builds per run; `setup_s` is their median. */
  val Repeats = 2

  /** Untimed queries before the measured loop. */
  val WarmSeconds = 3.0

  /** Length of each untraced / traced stretch of a traced run. */
  val TraceChunkSeconds = 0.5

  /** The last build (the one queried), and per build its stats and the
    * heap it retained.
    */
  final case class Builds[A, T](last: A, stats: Seq[T], retainedBytes: Seq[Long])

  /** Builds `Repeats` times. Each build starts from a collected heap with
    * the previous build already dropped; `after − before` is the heap the
    * build retains (a cross-check, see [[EndToEnd.indexBytesRatio]]).
    */
  def repeat[A <: AnyRef, T](build: () => (A, T)): Builds[A, T] = {
    var last: A = null.asInstanceOf[A]
    val stats = Seq.newBuilder[T]
    val bytes = Seq.newBuilder[Long]
    (0 until Repeats).foreach { _ =>
      last = null.asInstanceOf[A]
      val before = Heap.retained()
      val (held, stat) = build()
      last = held
      bytes += Heap.retained() - before
      stats += stat
    }
    Builds(last, stats.result(), bytes.result())
  }
}

/** The end-to-end metrics every workload reports (see BENCHMARK.json). */
object EndToEnd {

  /** `index_bytes_per_input_byte` = bytes the built index retains / (N·D·4).
    *  - IVF: `SizeEstimator.estimate` over the held pruner and index: a walk
    *    of the object graph they reach, with the JVM's object layout. It
    *    repeats exactly and follows any change to the index classes. The
    *    heap delta of each build after full GCs is reported next to it as a
    *    cross-check; that reading moves by up to ~0.4 MB between two
    *    identical builds, so it cannot be the metric.
    *  - Spark: the storage bytes of the cached `Dataset[PdxBlockRow]`.
    */
  def indexBytesRatio(indexBytes: Long, n: Int, d: Int): Double = indexBytes / (n.toDouble * d * 4)

  /** `setup_s` is the median of the build times `setupS`, as measured: two
    * probe readings around a build of several seconds follow the host's
    * speed too loosely to scale it (scaled, its spread over ten runs was
    * larger than raw).
    */
  def metrics(loop: Loop, recall: Double, setupS: Seq[Double], indexBytesRatio: Double,
              attempted: Long, failed: Long): Seq[Metric] = {
    val lat = loop.latencyNanos
    Seq(
      Metric("qps", loop.qps, "1/s"),
      Metric("latency_ms_p50", Stats.percentile(lat, 50) / 1e6, "ms"),
      Metric("latency_ms_p90", Stats.percentile(lat, 90) / 1e6, "ms"),
      Metric("recall_at_10", recall, "fraction"),
      Metric("success_frac", (attempted - failed).toDouble / attempted, "fraction"),
      Metric("setup_s", Stats.median(setupS.toArray), "s"),
      Metric("index_bytes_per_input_byte", indexBytesRatio, "ratio"),
    )
  }

  /** Sample counts behind the latency percentiles, the speed factors, and
    * the query timings as measured, before scaling to the reference speed.
    */
  def samples(loop: Loop): Seq[(String, Any)] = {
    val lat = loop.latencyNanos
    val raw = loop.rawLatencyNanos
    val f = loop.clockFactors
    Seq("latency_samples" -> lat.length,
        "samples_beyond_p90" -> (if (lat.isEmpty) 0 else Stats.beyond(lat, 90)),
        "clock_factor" -> (if (f.isEmpty) Nil else Seq("min" -> f.min, "median" -> Stats.median(f), "max" -> f.max)),
        "raw" -> (if (raw.isEmpty) Nil else Seq(
          "qps" -> loop.rawQps,
          "latency_ms_p50" -> Stats.percentile(raw, 50) / 1e6,
          "latency_ms_p90" -> Stats.percentile(raw, 90) / 1e6)),
        "qps_per_second" -> loop.windowQps.map(q => math.round(q).toInt))
  }
}

/** Every per-layer metric, in report order. A traced run reports all of
  * them; a layer its workload does not exercise reads 0.
  */
object Layers {
  val all: Seq[(String, String)] = Seq(
    "prune.prepare_query_us" -> "us",
    "prune.fit_s" -> "s",
    "prune.transform_s" -> "s",
    "ivf.nearest_buckets_us" -> "us",
    "ivf.kmeans_s" -> "s",
    "ivf.materialize_s" -> "s",
    "ivf.vectors_probed_per_query" -> "count",
    "core.search_us" -> "us",
    "core.search_ns_per_probed_vector" -> "ns",
    "core.driver_search_ms" -> "ms",
    "spark.plan_ms" -> "ms",
    "spark.job_floor_ms" -> "ms",
    "spark.jobs_per_query" -> "count",
    "spark.tasks_per_query" -> "count",
    "spark.task_run_ms" -> "ms",
    "spark.task_deserialize_ms" -> "ms",
    "spark.task_gc_ms" -> "ms",
    "spark.critical_task_ms" -> "ms",
    "spark.driver_other_ms" -> "ms",
    "spark.pack_cache_s" -> "s",
    "spark.cached_bytes" -> "bytes",
    "bench.unaccounted_us" -> "us",
    "bench.traced_qps" -> "1/s",
    "bench.trace_overhead_frac" -> "fraction",
  )

  def complete(measured: Seq[Metric]): Seq[Metric] = {
    val byName = measured.map(m => m.name -> m).toMap
    val unknown = byName.keySet -- all.map(_._1)
    require(unknown.isEmpty, s"undeclared per-layer metrics: ${unknown.mkString(", ")}")
    all.map { case (name, unit) =>
      byName.get(name).map { m => require(m.unit == unit, s"$name unit ${m.unit} != $unit"); m }
        .getOrElse(Metric(name, 0.0, unit))
    }
  }
}

/** One traced span, times in ns; `count` is -1 where the span counts nothing. */
final case class Span(seq: Int, query: Int, name: String, parent: String, start: Long, end: Long,
                      count: Long)

/** Spans are held in memory during the run and written out once at the end. */
object Trace {
  def write(opts: Opts, spans: Iterator[Span]): File = {
    val f = new File(opts.outDir, s"trace-${opts.workload}-seed${opts.seed}.csv")
    val w = new PrintWriter(f)
    try {
      w.println("query_seq,query_id,span,parent,start_ns,end_ns,count")
      spans.foreach(s => w.println(s"${s.seq},${s.query},${s.name},${s.parent},${s.start},${s.end}," +
                                   (if (s.count < 0) "" else s.count.toString)))
    } finally w.close()
    f
  }
}

object Main {

  val workloads: Seq[String] = Seq("ivf-ads-d768", "ivf-bond-d128", "spark-bond-d128")

  def runOne(opts: Opts): RunResult = opts.workload match {
    case "ivf-ads-d768" => IvfWorkload.run(IvfWorkload.AdsD768, opts)
    case "ivf-bond-d128" => IvfWorkload.run(IvfWorkload.BondD128, opts)
    case "spark-bond-d128" => SparkWorkload.run(opts)
    case other => throw new IllegalArgumentException(
      s"unknown workload $other (expected one of ${workloads.mkString(", ")} or all)")
  }

  private def report(opts: Opts, r: RunResult, host: Seq[(String, Any)]): Unit = {
    println(s"== ${opts.workload}  seed=${opts.seed}  seconds=${opts.seconds}  trace=${if (opts.trace) 1 else 0}")
    r.metrics.foreach(m => println(f"  ${m.name}%-34s ${m.value}%14.6f ${m.unit}"))
    println(s"  attempted=${r.attempted} failed=${r.failed} correct=${r.correct}")
    r.info.foreach { case (k, v) => println(s"  $k: ${Json.value(v)}") }
    r.errors.take(10).foreach(e => Console.err.println(s"ANSWER CHECK FAILED (${opts.workload}): $e"))
    r.info.collectFirst { case ("samples_beyond_p90", n: Int) if n < 10 =>
      Console.err.println(s"WARNING (${opts.workload}): only $n latency samples beyond p90; the run is too short for that tail")
    }
    val f = new File(opts.outDir, s"result-${opts.workload}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}.json")
    val w = new PrintWriter(f)
    try w.println(Json.obj(Seq(
      "workload" -> opts.workload, "seed" -> opts.seed, "seconds" -> opts.seconds, "trace" -> opts.trace,
      "correct" -> r.correct, "attempted" -> r.attempted, "failed" -> r.failed,
      "metrics" -> r.metrics.map(m => m.name -> m), "host" -> host, "info" -> r.info,
      "errors" -> r.errors.take(100))))
    finally w.close()
  }

  def main(args: Array[String]): Unit = {
    val opts = Opts.parse(args)
    opts.outDir.mkdirs()
    Clock.warm()
    val host = Host.describe()
    val names = if (opts.workload == "all") workloads else Seq(opts.workload)
    val results = names.map { name =>
      val o = opts.copy(workload = name)
      val r = runOne(o)
      report(o, r, host)
      name -> r
    }
    val line =
      if (names.length == 1) results.head._2
      else RunResult(results.forall(_._2.correct), results.map(_._2.attempted).sum,
                     results.map(_._2.failed).sum,
                     results.flatMap { case (n, r) => r.metrics.map(m => m.copy(name = s"$n.${m.name}")) },
                     Nil, Nil)
    println(Json.resultLine(line))
    System.out.flush()
    // Spark leaves non-daemon threads behind; exit explicitly.
    System.exit(if (line.correct) 0 else 1)
  }
}
