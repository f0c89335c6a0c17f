package repro.bench

import repro.core._
import repro.core.LinearScan.requireQueryDims
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

  // ------------------------------------------------------------------
  // DSM: fully decomposed layout — each dimension is one full-collection
  // column. Same inner loop as PDX but the accumulator array spans the
  // whole collection (breaking the tight-loop register reuse, as §7 notes).
  // ------------------------------------------------------------------

  /** Fully decomposed (DSM) layout: one full-collection column per dim. */
  def packDsm(vecs: IndexedSeq[Array[Float]]): Array[Array[Float]] = {
    if (vecs.isEmpty) return Array.empty
    val d = vecs.head.length
    val n = vecs.length
    val cols = Array.ofDim[Float](d, n)
    var i = 0
    while (i < n) {
      val v = vecs(i)
      var dim = 0
      while (dim < d) { cols(dim)(i) = v(dim); dim += 1 }
      i += 1
    }
    cols
  }

  /** Full-collection DSM L2: columns(d) holds dimension d of all n vectors. */
  def l2Dsm(columns: Array[Array[Float]], n: Int, q: Array[Float],
            acc: Array[Float]): Unit = {
    java.util.Arrays.fill(acc, 0, n, 0f)
    var d = 0
    while (d < columns.length) {
      val col = columns(d)
      val qd = q(d)
      var i = 0
      while (i < n) { val t = qd - col(i); acc(i) += t * t; i += 1 }
      d += 1
    }
  }

  /** Horizontal scan with the unrolled ("SIMD") kernel, vector i of `data`
    * at `i*d`: the FAISS / Milvus / USearch exact-scan stand-in.
    */
  def naryKnn(data: Array[Float], n: Int, d: Int, q: Array[Float], k: Int): KnnHeap = {
    requireQueryDims(q, d)
    val heap = new KnnHeap(k)
    var i = 0
    while (i < n) {
      heap.push(i.toLong, Kernels.l2Unrolled(data, i * d, q, 0, d))
      i += 1
    }
    heap
  }

  /** Horizontal scan with the plain scalar kernel (the "vanilla" baseline). */
  def naryScalarKnn(data: Array[Float], n: Int, d: Int, q: Array[Float], k: Int): KnnHeap = {
    requireQueryDims(q, d)
    val heap = new KnnHeap(k)
    var i = 0
    while (i < n) {
      heap.push(i.toLong, KernelBench.l2Scalar(data, i * d, q, d))
      i += 1
    }
    heap
  }

  /** Fully decomposed (DSM) linear scan: whole-collection columns. */
  def dsmKnn(columns: Array[Array[Float]], n: Int, q: Array[Float], k: Int): KnnHeap = {
    requireQueryDims(q, columns.length)
    val acc = new Array[Float](n)
    l2Dsm(columns, n, q, acc)
    val heap = new KnnHeap(k)
    var i = 0
    while (i < n) { heap.push(i.toLong, acc(i)); i += 1 }
    heap
  }

  /** N-ary + on-the-fly gather scan (§7): PDX-style computation with
    * strided loads from horizontal storage, one PDX block's worth of vectors
    * (64) at-a-time.
    */
  def gatherKnn(data: Array[Float], n: Int, d: Int, q: Array[Float], k: Int): KnnHeap = {
    requireQueryDims(q, d)
    val heap = new KnnHeap(k)
    val out = new Array[Float](PdxLayout.DefaultBlockSize)
    var v0 = 0
    while (v0 < n) {
      val count = math.min(PdxLayout.DefaultBlockSize, n - v0)
      KernelBench.l2NaryGather(data, v0, count, d, q, out)
      var i = 0
      while (i < count) { heap.push((v0 + i).toLong, out(i)); i += 1 }
      v0 += count
    }
    heap
  }

  /** Timed rounds per measurement: with six layouts, each runs first once. */
  private final val Rounds = 6

  /** Queries per second of each of `fs` over `queries`, measured round-robin
    * so that a slow spell of the host falls on every layout alike: one
    * warm-up pass of each, then [[Rounds]] rounds in which each runs whole
    * passes (at least one) until `minNs / Rounds` have elapsed. Round r
    * starts with `fs(r % fs.length)` and goes on in list order. A layout's
    * QPS is the median of its rounds.
    */
  private def measureQps(queries: IndexedSeq[Array[Float]], minNs: Long)(
      fs: (Array[Float] => Unit)*): Seq[Double] = {
    fs.foreach(f => queries.foreach(f))
    val perRound = Array.ofDim[Double](fs.length, Rounds)
    for (r <- 0 until Rounds; j <- fs.indices) {
      val f = (r + j) % fs.length
      val t0 = System.nanoTime()
      var reps = 0
      var elapsed = 0L
      while (elapsed < minNs / Rounds) {
        queries.foreach(fs(f))
        reps += 1
        elapsed = System.nanoTime() - t0
      }
      perRound(f)(r) = queries.length.toLong * reps * 1e9 / elapsed
    }
    perRound.toSeq.map { qps =>
      java.util.Arrays.sort(qps)
      (qps((Rounds - 1) / 2) + qps(Rounds / 2)) / 2
    }
  }

  final case class Row(dataset: String, qps: Map[String, Double]) {
    def speedupOfBondOver(c: String): Double = qps("pdx-bond") / qps(c)
  }

  def run(specs: Seq[DatasetSpec], quick: Boolean = false): (String, Seq[Row]) = {
    val k = BenchConfig.K
    val rows = specs.map { spec =>
      val ds = DatasetCache.dataset(spec)
      val vecs = ds.vectors
      val n = vecs.length
      val d = spec.d
      val ids = vecs.indices.map(_.toLong)
      val queries = if (quick) ds.queries.take(5) else ds.queries
      val nary = PdxLayout.packNary(vecs)
      val dsm = packDsm(vecs)
      val blocks64 = PdxLayout.pack(vecs, ids, 64)
      val bondBlocks = PdxLayout.pack(vecs, ids, math.max(256, n / 10))
      val bond = new Bond(d, Bond.DistanceToMeans)
      val searcher = new PdxSearcher(k)

      // In the order of `competitors`.
      val qps = measureQps(queries, if (quick) 50_000_000L else 400_000_000L)(
        q => BenchUtil.consume(naryKnn(nary, n, d, q, k).threshold),
        q => BenchUtil.consume(naryScalarKnn(nary, n, d, q, k).threshold),
        q => BenchUtil.consume(dsmKnn(dsm, n, q, k).threshold),
        q => BenchUtil.consume(gatherKnn(nary, n, d, q, k).threshold),
        q => BenchUtil.consume(LinearScan.pdxKnn(blocks64, q, k).threshold),
        q => BenchUtil.consume(searcher.search(bondBlocks, q, bond).threshold),
      )
      Row(spec.label, competitors.zip(qps).toMap)
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
  def dsmCrossover(): (String, Seq[(Int, Double)]) = {
    val d = 32
    val results = Seq(8_000, 64_000, 400_000, 2_000_000).map { n =>
      val vecs = VectorData.gaussian(n, d, seed = 1234L + n)
      val queries = VectorData.gaussian(5, d, seed = 4321L + n)
      val dsm = packDsm(vecs)
      val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64)
      val Seq(dsmQps, pdxQps) = measureQps(queries, 300_000_000L)(
        q => BenchUtil.consume(dsmKnn(dsm, n, q, BenchConfig.K).threshold),
        q => BenchUtil.consume(LinearScan.pdxKnn(blocks, q, BenchConfig.K).threshold))
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
