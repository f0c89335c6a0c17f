package repro.bench

import repro.core._
import repro.data.VectorData
import repro.data.VectorData.DatasetSpec
import repro.prune.Bond

/** Exact-search shape check (§6.5 headline, supports the Figure 9/11
  * claims quoted in EXPERIMENTS.md): QPS of exact K=10 search per layout.
  *
  * Competitors (all exact, raw vectors):
  *  - `nary`      horizontal scan, unrolled kernel — FAISS/USearch/Milvus
  *                IVF-less exact stand-in;
  *  - `nary-scalar` plain scalar horizontal scan — the Scikit-learn-ish
  *                baseline;
  *  - `dsm`       fully decomposed layout linear scan;
  *  - `gather`    N-ary + on-the-fly transposition (§7);
  *  - `pdx-linear` PDX linear scan (blocks of 64);
  *  - `pdx-bond`  PDXearch + PDX-BOND (distance-to-means) over horizontal
  *                partitions (paper: ≤10K vectors each; scaled to n/10 here
  *                so the exact search still has multiple blocks).
  */
object ExactSearchBench {

  val competitors: Seq[String] =
    Seq("nary", "nary-scalar", "dsm", "gather", "pdx-linear", "pdx-bond")

  /** Queries per second of `f` over `queries`: one warmup pass, then whole
    * passes until at least `minNs` have elapsed.
    */
  private def measureQps(queries: IndexedSeq[Array[Float]], minNs: Long)(
      f: Array[Float] => Unit): Double = {
    queries.foreach(f)
    val t0 = System.nanoTime()
    var reps = 0
    var elapsed = 0L
    while (elapsed < minNs) {
      queries.foreach(f)
      reps += 1
      elapsed = System.nanoTime() - t0
    }
    queries.length.toLong * reps * 1e9 / elapsed
  }

  final case class Row(dataset: String, qps: Map[String, Double]) {
    def speedupOfBondOver(c: String): Double = qps("pdx-bond") / qps(c)
  }

  def run(specs: Seq[DatasetSpec], k: Int = 10, quick: Boolean = false)
      : (String, Seq[Row]) = {
    val rows = specs.map { spec =>
      val ds = DatasetCache.dataset(spec)
      val vecs = ds.vectors
      val n = vecs.length
      val d = spec.d
      val ids = vecs.indices.map(_.toLong)
      val queries = if (quick) ds.queries.take(5) else ds.queries
      val nary = PdxLayout.packNary(vecs)
      val naryBucket = NaryBucket(ids.toArray, n, d, nary, PdxLayout.globalMeans(vecs),
                                  Array.emptyFloatArray)
      val dsm = PdxLayout.packDsm(vecs)
      val blocks64 = PdxLayout.pack(vecs, ids, 64)
      val bondBlocks = PdxLayout.pack(vecs, ids, math.max(256, n / 10))
      val bond = new Bond(d, Bond.DistanceToMeans)
      val searcher = new PdxSearcher(k)

      val qpsOf = measureQps(queries, if (quick) 50_000_000L else 400_000_000L) _

      val qps = Map(
        "nary" -> qpsOf(q => BenchUtil.consume(LinearScan.naryKnn(Iterator.single(naryBucket), q, k).threshold)),
        "nary-scalar" -> qpsOf(q => BenchUtil.consume(LinearScan.naryScalarKnn(nary, n, d, q, k).threshold)),
        "dsm" -> qpsOf(q => BenchUtil.consume(LinearScan.dsmKnn(dsm, n, q, k).threshold)),
        "gather" -> qpsOf(q => BenchUtil.consume(LinearScan.gatherKnn(nary, n, d, q, k).threshold)),
        "pdx-linear" -> qpsOf(q => BenchUtil.consume(LinearScan.pdxKnn(blocks64, q, k).threshold)),
        "pdx-bond" -> qpsOf(q => BenchUtil.consume(searcher.search(bondBlocks, q, bond).threshold)),
      )
      Row(spec.label, qps)
    }

    val table = BenchUtil.markdownTable(
      Seq("Dataset") ++ competitors ++ Seq("BOND/nary speedup"),
      rows.map(r => Seq(r.dataset) ++ competitors.map(c => BenchUtil.f1(r.qps(c))) ++
        Seq(BenchUtil.f2(r.speedupOfBondOver("nary"))))
    ) + "\nExact-search QPS (single thread), K=10. 'nary' stands in for " +
      "FAISS/USearch/Milvus exact scans, 'nary-scalar' for Scikit-learn.\n"
    (table, rows)
  }

  /** DSM vs PDX-linear across collection sizes (§7 "PDX vs DSM"): DSM's
    * column-at-a-time scan re-streams its full-collection distances array
    * once per dimension, which only starts to hurt once that array outgrows
    * the cache — at small N (unit/bench scale) DSM can actually win. This
    * sweep locates the crossover the paper's in-memory experiments sit
    * beyond (their N is 0.3–10M).
    */
  def dsmCrossover(ns: Seq[Int] = Seq(8_000, 64_000, 400_000, 2_000_000), d: Int = 32,
                   quick: Boolean = false): (String, Seq[(Int, Double)]) = {
    val results = ns.map { n =>
      val vecs = VectorData.gaussian(n, d, seed = 1234L + n)
      val queries = VectorData.gaussian(if (quick) 2 else 5, d, seed = 4321L + n)
      val dsm = PdxLayout.packDsm(vecs)
      val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64)
      val qpsOf = measureQps(queries, if (quick) 30_000_000L else 300_000_000L) _
      val dsmQps = qpsOf(q => BenchUtil.consume(LinearScan.dsmKnn(dsm, n, q, 10).threshold))
      val pdxQps = qpsOf(q => BenchUtil.consume(LinearScan.pdxKnn(blocks, q, 10).threshold))
      n -> pdxQps / dsmQps
    }
    val table = BenchUtil.markdownTable(
      Seq("N (d=32)") ++ results.map(_._1.toString),
      Seq(Seq("PDX-linear / DSM QPS") ++ results.map(r => BenchUtil.f2(r._2)))
    ) + "\nPDX-over-DSM speedup vs collection size: DSM's distances-array " +
      "re-streaming penalty appears once N outgrows the cache (paper §7).\n"
    (table, results)
  }
}
