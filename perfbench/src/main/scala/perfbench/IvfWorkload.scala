package perfbench

import org.apache.spark.util.SizeEstimator
import repro.core.{KnnHeap, PdxSearcher, Pruner}
import repro.data.VectorData
import repro.data.VectorData.DatasetSpec
import repro.ivf.{Ivf, IvfIndex}
import repro.prune.{AdSampling, Bond}

/** A single-thread IVF query workload (PDXearch via `IvfIndex.searchPdx`). */
final case class IvfConfig(
    name: String,
    dataset: String,
    d: Int,
    n: Int,
    skewed: Boolean,
    nlist: Int,
    nprobe: Int,
    nQueries: Int,
    fitPruner: () => Pruner
)

object IvfWorkload {

  val K = 10

  /** Both IVF workloads reach recall 1.0 or nearly; below this the run is wrong. */
  val RecallFloor = 0.9

  /** High-D case: the dense D×D query rotation of ADSampling is a large
    * share of each query, so this is where query prep can show.
    */
  val AdsD768 = IvfConfig("ivf-ads-d768", "Contriever", d = 768, n = 8000, skewed = false,
                          nlist = 89, nprobe = 16, nQueries = 100,
                          fitPruner = () => new AdSampling(768, epsilon0 = 2.1))

  /** Exact pruning with no query prep: bucket selection and the PDXearch
    * loops carry all the time. The bypass for a prep or rotation change.
    */
  val BondD128 = IvfConfig("ivf-bond-d128", "SIFT", d = 128, n = 30000, skewed = true,
                           nlist = 173, nprobe = 16, nQueries = 100,
                           fitPruner = () => new Bond(128, Bond.DistanceToMeans))

  /** What one build holds: the pruner and the index, nothing transient. */
  final class Built(val pruner: Pruner, val index: IvfIndex)

  /** Seconds per build phase. */
  final case class BuildTimes(kmeans: Double, fit: Double, transform: Double, materialize: Double) {
    def total: Double = kmeans + fit + transform + materialize
  }

  def build(cfg: IvfConfig, nlist: Int, vecs: IndexedSeq[Array[Float]],
            ids: IndexedSeq[Long]): (Built, BuildTimes) = {
    val t0 = System.nanoTime()
    val part = Ivf.partition(vecs, nlist)
    val t1 = System.nanoTime()
    val pruner = cfg.fitPruner()
    val t2 = System.nanoTime()
    val inSpace = pruner.transformData(vecs)
    val centroids = part.rawCentroids.map(pruner.transformVector)
    val t3 = System.nanoTime()
    val index = IvfIndex.materialize(part, inSpace, ids, centroids, pruner.needsSuffixNorms)
    val t4 = System.nanoTime()
    (new Built(pruner, index), BuildTimes((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e9))
  }

  /** One traced query: when each call into a layer ended (ns) and how many
    * vectors the probed blocks held.
    */
  private final case class QuerySpan(query: Int, start: Long, prepped: Long, bucketed: Long,
                                     searched: Long, probed: Long)

  def run(cfg: IvfConfig, opts: Opts): RunResult = {
    val clock = new StageClock
    val ds = VectorData.generate(DatasetSpec(cfg.dataset, cfg.d, cfg.n, cfg.nQueries, cfg.skewed,
                                             seed = opts.seed))
    val vecs = ds.vectors
    val queries = ds.queries
    val ids = ds.ids
    val answers = new Answers(vecs, queries, K)
    clock.mark("inputs")

    // A throwaway build on a tenth of the data compiles the build path
    // first; then `Setup.Repeats` timed builds, each between full GCs so the
    // heap it retains can be read.
    val warmN = cfg.n / 10
    build(cfg, math.sqrt(warmN.toDouble).round.toInt, vecs.take(warmN), ids.take(warmN))
    val builds = Setup.repeat(() => build(cfg, cfg.nlist, vecs, ids))
    val built = builds.last
    val times = builds.stats
    val pruner = built.pruner
    val index = built.index
    val searcher = new PdxSearcher(K)
    clock.mark("setup")

    def ask(qi: Int): IndexedSeq[(Long, Float)] =
      index.searchPdx(queries(qi), K, cfg.nprobe, pruner, searcher)

    val spans = scala.collection.mutable.ArrayBuffer.empty[QuerySpan]
    def askTraced(qi: Int): IndexedSeq[(Long, Float)] = {
      val t0 = System.nanoTime()
      val pq = pruner.prepareQuery(queries(qi))
      val t1 = System.nanoTime()
      val probes = index.nearestBuckets(pq.query, cfg.nprobe)
      val t2 = System.nanoTime()
      val heap = new KnnHeap(K)
      searcher.searchPrepared(probes.iterator.map(c => index.blocks(index.bucketOf(c))), pq, heap)
      val res = heap.sorted
      val t3 = System.nanoTime()
      var probed = 0L
      probes.foreach(c => probed += index.blocks(index.bucketOf(c)).n)
      spans += QuerySpan(qi, t0, t1, t2, t3, probed)
      res
    }

    // Untimed pass: every query answered once; these answers give recall
    // and are the reference every later answer of the same query must equal.
    val first = queries.indices.map(qi => ask(qi).toArray)
    val firstErrors = first.indices.flatMap { qi =>
      Option(answers.checkShape(first(qi).map(_._1), first(qi).map(_._2.toDouble))).map(e => s"query $qi: $e")
    }
    val recall = Stats.mean(first.indices.map(qi => answers.recall(qi, first(qi).map(_._1))).toArray)

    def check(qi: Int, res: IndexedSeq[(Long, Float)]): String = {
      val got = res.map(_._1).toArray
      val err = answers.checkShape(got, res.map(_._2.toDouble).toArray)
      if (err != null) err
      else if (!java.util.Arrays.equals(got, first(qi).map(_._1))) "answer differs from the first answer to the same query"
      else null
    }

    val untraced = new Loop(queries.length)
    val traced = new Loop(queries.length)
    val noiseStart = Host.sample()
    if (!opts.trace) {
      new Loop(queries.length).run(Setup.WarmSeconds)(ask)(check)
      untraced.run(opts.seconds)(ask)(check)
    } else {
      new Loop(queries.length).run(Setup.WarmSeconds / 2)(ask)(check)
      new Loop(queries.length).run(Setup.WarmSeconds / 2)(askTraced)(check)
      spans.clear()
      Loop.alternate(opts.seconds, untraced, traced)(ask, askTraced)(check)
    }
    val noise = Host.noise(noiseStart, Host.sample())
    clock.mark("queries")

    val indexBytes = SizeEstimator.estimate(built)
    val setupS = times.map(_.total)
    val loops = if (opts.trace) Seq(untraced, traced) else Seq(untraced)
    val attempted = loops.map(_.attempted).sum + first.length
    val failed = loops.map(_.failed).sum + firstErrors.length
    val errors = firstErrors ++ loops.flatMap(_.errors)

    val metrics =
      if (!opts.trace) EndToEnd.metrics(untraced, recall, setupS, EndToEnd.indexBytesRatio(indexBytes, cfg.n, cfg.d),
                                         attempted, failed)
      else {
        val n = math.max(1, spans.length)
        def meanUs(f: QuerySpan => Long): Double = spans.iterator.map(f).sum / 1e3 / n
        val prepUs = meanUs(s => s.prepped - s.start)
        val bucketsUs = meanUs(s => s.bucketed - s.prepped)
        val searchUs = meanUs(s => s.searched - s.bucketed)
        val probed = spans.iterator.map(_.probed).sum
        val untracedUs = Stats.mean(untraced.rawLatencyNanos) / 1e3
        Trace.write(opts, spans.iterator.zipWithIndex.flatMap { case (s, i) =>
          Iterator(Span(i, s.query, "query", "", s.start, s.searched, s.probed),
                   Span(i, s.query, "prune.prepare_query", "query", s.start, s.prepped, -1),
                   Span(i, s.query, "ivf.nearest_buckets", "query", s.prepped, s.bucketed, -1),
                   Span(i, s.query, "core.search", "query", s.bucketed, s.searched, s.probed))
        })
        Layers.complete(Seq(
          Metric("prune.prepare_query_us", prepUs, "us"),
          Metric("prune.fit_s", Stats.median(times.map(_.fit).toArray), "s"),
          Metric("prune.transform_s", Stats.median(times.map(_.transform).toArray), "s"),
          Metric("ivf.nearest_buckets_us", bucketsUs, "us"),
          Metric("ivf.kmeans_s", Stats.median(times.map(_.kmeans).toArray), "s"),
          Metric("ivf.materialize_s", Stats.median(times.map(_.materialize).toArray), "s"),
          Metric("ivf.vectors_probed_per_query", probed.toDouble / n, "count"),
          Metric("core.search_us", searchUs, "us"),
          Metric("core.search_ns_per_probed_vector", searchUs * 1e3 * n / math.max(1L, probed), "ns"),
          Metric("bench.unaccounted_us", untracedUs - (prepUs + bucketsUs + searchUs), "us"),
          Metric("bench.traced_qps", traced.qps, "1/s"),
          Metric("bench.trace_overhead_frac", 1.0 - traced.qps / untraced.qps, "fraction"),
        ))
      }

    RunResult(
      correct = failed == 0 && recall >= RecallFloor,
      attempted = attempted,
      failed = failed,
      metrics = metrics,
      info = Seq(
        "workload" -> Seq("n" -> cfg.n, "d" -> cfg.d, "class" -> (if (cfg.skewed) "skewed" else "normal"),
                          "nlist" -> cfg.nlist, "nprobe" -> cfg.nprobe, "k" -> K,
                          "pruner" -> pruner.name, "distinct_queries" -> queries.length),
        "setup_s_each" -> setupS,
        "index_bytes" -> indexBytes,
        "retained_heap_bytes_each" -> builds.retainedBytes,
        "noise" -> noise,
        "stage_s" -> clock.result,
      ) ++ EndToEnd.samples(untraced),
      errors = errors.toSeq
    )
  }
}
