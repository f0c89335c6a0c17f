package perfbench

import java.io.File
import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.{Dataset, Row, SparkSession}
import repro.core.PdxSearcher
import repro.data.VectorData
import repro.data.VectorData.DatasetSpec
import repro.prune.Bond
import repro.spark.{PdxBlockRow, PdxSpark}
import scala.collection.mutable

/** Warm distributed PDX-BOND queries over a cached `Dataset[PdxBlockRow]`:
  * `PdxSpark.knnBond(...).collect()` on Spark local mode. Most of each
  * query is spent outside the search (planning, job scheduling, block
  * decode), which is what a change to the Spark layer would move.
  */
object SparkWorkload {

  val N = 100000
  val D = 128
  val K = 10
  val NQueries = 16
  val BlockSize = 64
  val Partitions = 3
  /** Three executor threads plus the one client thread use the 4 cores. */
  val Master = "local[3]"

  /** Local property that tags the jobs of one traced query. */
  private val QueryProp = "perfbench.query"

  final case class TaskRec(stage: Int, launch: Long, finish: Long, runMs: Long, deserMs: Long, gcMs: Long)

  /** Collects, per traced query, its jobs and their tasks. Listener events
    * arrive on Spark's bus thread; read only after [[ListenerBus.drain]].
    */
  final class QueryListener extends SparkListener {
    private val stageOwner = mutable.Map.empty[Int, Int]
    private val jobStart = mutable.Map.empty[Int, (Int, Long)]
    val jobs = mutable.Map.empty[Int, mutable.ArrayBuffer[(Long, Long)]]
    val tasks = mutable.Map.empty[Int, mutable.ArrayBuffer[TaskRec]]

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      Option(e.properties).flatMap(p => Option(p.getProperty(QueryProp))).foreach { q =>
        jobStart(e.jobId) = (q.toInt, e.time)
        e.stageIds.foreach(stageOwner(_) = q.toInt)
      }
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      jobStart.remove(e.jobId).foreach { case (q, t) =>
        jobs.getOrElseUpdate(q, mutable.ArrayBuffer.empty) += ((t, e.time))
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      stageOwner.get(e.stageId).foreach { q =>
        val m = e.taskMetrics
        tasks.getOrElseUpdate(q, mutable.ArrayBuffer.empty) += TaskRec(
          e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime,
          if (m == null) 0 else m.executorRunTime,
          if (m == null) 0 else m.executorDeserializeTime,
          if (m == null) 0 else m.jvmGCTime)
      }
    }
  }

  /** One traced query: wall-clock span (epoch ms), latency, planning phases. */
  final case class QueryRec(seq: Int, query: Int, start: Long, end: Long, latencyNs: Long,
                            phases: Seq[(String, Long, Long)])

  def run(opts: Opts): RunResult = {
    val clock = new StageClock
    val ds = VectorData.generate(DatasetSpec("DEEP", D, N, NQueries, skewed = false, seed = opts.seed))
    val answers = new Answers(ds.vectors, ds.queries, K)
    clock.mark("inputs")
    val work = new File(opts.outDir, "spark-work").getAbsoluteFile
    val spark = SparkSession.builder
      .master(Master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", work.getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
      .getOrCreate()
    clock.mark("spark_start")
    try runIn(spark, ds, answers, opts, clock) finally spark.stop()
  }

  private def runIn(spark: SparkSession, ds: VectorData.Dataset, answers: Answers,
                    opts: Opts, clock: StageClock): RunResult = {
    val sc = spark.sparkContext
    val queries = ds.queries

    def build(vecs: IndexedSeq[Array[Float]]): (Dataset[PdxBlockRow], Double) = {
      val t0 = System.nanoTime()
      val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs, Partitions), BlockSize).cache()
      blocks.count()
      (blocks, (System.nanoTime() - t0) / 1e9)
    }
    def cachedBytes(): Long =
      sc.getRDDStorageInfo.filter(_.isCached).map(i => i.memSize + i.diskSize).sum

    // A throwaway build on a tenth of the data starts the executors and
    // compiles the build path; then `Setup.Repeats` timed builds.
    build(ds.vectors.take(N / 10))._1.unpersist(blocking = true)
    var blocks: Dataset[PdxBlockRow] = null
    val setupS = Seq.fill(Setup.Repeats) {
      if (blocks != null) blocks.unpersist(blocking = true)
      val (b, s) = build(ds.vectors)
      blocks = b
      s
    }
    val storageBytes = cachedBytes()
    clock.mark("setup")

    def ask(qi: Int): Array[Row] = PdxSpark.knnBond(blocks, queries(qi), K).collect()
    def idsOf(rows: Array[Row]) = rows.map(_.getLong(0))
    def check(qi: Int, rows: Array[Row]): String =
      answers.checkExact(qi, idsOf(rows), rows.map(_.getDouble(1)))

    val listener = new QueryListener
    val traces = mutable.ArrayBuffer.empty[QueryRec]
    var seq = 0
    def askTraced(qi: Int): Array[Row] = {
      seq += 1
      sc.setLocalProperty(QueryProp, seq.toString)
      val t0 = System.currentTimeMillis()
      val n0 = System.nanoTime()
      val df = PdxSpark.knnBond(blocks, queries(qi), K)
      val rows = try df.collect() finally sc.setLocalProperty(QueryProp, null)
      val n1 = System.nanoTime()
      val t1 = System.currentTimeMillis()
      val phases = df.queryExecution.tracker.phases.toSeq.sortBy(_._2.startTimeMs)
        .map { case (name, p) => (name, p.startTimeMs, p.endTimeMs) }
      traces += QueryRec(seq, qi, t0, t1, n1 - n0, phases)
      rows
    }

    // Untimed pass: every query answered once (this also warms the query
    // path); recall comes from these answers.
    val first = queries.indices.map(qi => ask(qi))
    val firstErrors = first.indices.flatMap(qi => Option(check(qi, first(qi))).map(e => s"query $qi: $e"))
    val recall = Stats.mean(first.indices.map(qi => answers.recall(qi, idsOf(first(qi)))).toArray)
    clock.mark("first_pass")

    val untraced = new Loop(queries.length)
    val traced = new Loop(queries.length)
    val noiseStart = Host.sample()
    if (!opts.trace) {
      new Loop(queries.length).run(Setup.WarmSeconds)(ask)(check)
      untraced.run(opts.seconds)(ask)(check)
    } else {
      sc.addSparkListener(listener)
      new Loop(queries.length).run(Setup.WarmSeconds)(askTraced)(check)
      ListenerBus.drain(sc)
      traces.clear()
      Loop.alternate(opts.seconds, untraced, traced)(ask, askTraced)(check)
      ListenerBus.drain(sc)
    }
    val noise = Host.noise(noiseStart, Host.sample())
    clock.mark("queries")

    val attempted = untraced.attempted + traced.attempted + first.length
    val failed = untraced.failed + traced.failed + firstErrors.length
    val metrics =
      if (!opts.trace) EndToEnd.metrics(untraced, recall, setupS, EndToEnd.indexBytesRatio(storageBytes, N, D),
                                         attempted, failed)
      else layerMetrics(sc, blocks, queries, listener, traces.toSeq, untraced, traced, setupS, storageBytes, opts)
    clock.mark("layers")

    RunResult(
      correct = failed == 0,
      attempted = attempted,
      failed = failed,
      metrics = metrics,
      info = Seq(
        "workload" -> Seq("n" -> N, "d" -> D, "class" -> "normal", "k" -> K, "block_size" -> BlockSize,
                          "partitions" -> Partitions, "distinct_queries" -> queries.length),
        "spark" -> Seq("master" -> sc.master, "default_parallelism" -> sc.defaultParallelism,
                       "version" -> sc.version),
        "setup_s_each" -> setupS,
        "index_bytes" -> storageBytes,
        "noise" -> noise,
        "stage_s" -> clock.result,
      ) ++ EndToEnd.samples(untraced),
      errors = (firstErrors ++ untraced.errors ++ traced.errors).toSeq
    )
  }

  private def layerMetrics(sc: SparkContext, blocks: Dataset[PdxBlockRow],
                           queries: IndexedSeq[Array[Float]], listener: QueryListener,
                           traces: Seq[QueryRec], untraced: Loop, traced: Loop,
                           setupS: Seq[Double], storageBytes: Long, opts: Opts): Seq[Metric] = {
    val n = math.max(1, traces.length)
    val byQuery = traces.map { t =>
      val tasks = listener.tasks.getOrElse(t.seq, mutable.ArrayBuffer.empty[TaskRec])
      val planMs = t.phases.map { case (_, s, e) => e - s }.sum
      val criticalMs = tasks.groupBy(_.stage).values.map(ts => ts.map(t => t.finish - t.launch).max).sum
      (planMs, criticalMs, tasks)
    }
    def meanOf(f: Int => Double): Double = traces.indices.map(f).sum / n
    val latencyMs = meanOf(i => traces(i).latencyNs / 1e6)
    val planMs = meanOf(i => byQuery(i)._1.toDouble)
    val criticalMs = meanOf(i => byQuery(i)._2.toDouble)

    // The job floor: a job over the cached blocks that decodes nothing.
    val floorMs = Stats.median(Array.fill(15) {
      val t0 = System.nanoTime()
      blocks.foreachPartition((_: Iterator[PdxBlockRow]) => ())
      (System.nanoTime() - t0) / 1e6
    })

    // The same PDX-BOND search over every block, one thread on the driver.
    val local = blocks.collect().map(_.toBlock)
    def driverSearch(q: Array[Float]) = new PdxSearcher(K).search(local.iterator, q, new Bond(D))
    queries.foreach(driverSearch)
    val driverMs = Stats.median(Array.fill(3) {
      val t0 = System.nanoTime()
      queries.foreach(driverSearch)
      (System.nanoTime() - t0) / 1e6 / queries.length
    })

    Trace.write(opts, traces.indices.iterator.flatMap { i =>
      val t = traces(i)
      val ms = 1000000L
      Iterator(Span(i, t.query, "query", "", t.start * ms, t.end * ms, -1)) ++
        t.phases.iterator.map { case (name, s, e) => Span(i, t.query, s"spark.plan.$name", "query", s * ms, e * ms, -1) } ++
        listener.jobs.getOrElse(t.seq, Nil).iterator.map { case (s, e) => Span(i, t.query, "spark.job", "query", s * ms, e * ms, -1) } ++
        listener.tasks.getOrElse(t.seq, Nil).iterator.map { r =>
          Span(i, t.query, s"spark.task.stage${r.stage}", "spark.job", r.launch * ms, r.finish * ms, -1)
        }
    })

    Layers.complete(Seq(
      Metric("core.driver_search_ms", driverMs, "ms"),
      Metric("spark.plan_ms", planMs, "ms"),
      Metric("spark.job_floor_ms", floorMs, "ms"),
      Metric("spark.jobs_per_query", meanOf(i => listener.jobs.getOrElse(traces(i).seq, Nil).size.toDouble), "count"),
      Metric("spark.tasks_per_query", meanOf(i => byQuery(i)._3.size.toDouble), "count"),
      Metric("spark.task_run_ms", meanOf(i => byQuery(i)._3.map(_.runMs).sum.toDouble), "ms"),
      Metric("spark.task_deserialize_ms", meanOf(i => byQuery(i)._3.map(_.deserMs).sum.toDouble), "ms"),
      Metric("spark.task_gc_ms", meanOf(i => byQuery(i)._3.map(_.gcMs).sum.toDouble), "ms"),
      Metric("spark.critical_task_ms", criticalMs, "ms"),
      Metric("spark.driver_other_ms", latencyMs - planMs - criticalMs, "ms"),
      Metric("spark.pack_cache_s", Stats.median(setupS.toArray), "s"),
      Metric("spark.cached_bytes", storageBytes.toDouble, "bytes"),
      Metric("bench.traced_qps", traced.qps, "1/s"),
      Metric("bench.trace_overhead_frac", 1.0 - traced.qps / untraced.qps, "fraction"),
    ))
  }
}
