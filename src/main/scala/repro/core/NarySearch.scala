package repro.core

/** One IVF bucket (or partition) in the conventional horizontal layout:
  * vector i occupies `data(i*d until (i+1)*d)`. `means` and `suffixSqNorms`
  * mirror the PDX block metadata: per-dimension means (PDX-BOND's order) and,
  * for BSA, `suffixSqNorms(i*(d+1)+j) = Σ_{t≥j} v_i(t)²`.
  */
final case class NaryBucket(ids: Array[Long], n: Int, d: Int, data: Array[Float],
                            means: Array[Float], suffixSqNorms: Array[Float]) {
  require(ids.length == n, s"ids ${ids.length} != n $n")
  require(data.length == n * d, s"data ${data.length} != n*d ${n * d}")
  require(means.length == d, s"means ${means.length} != d $d")
}

object NaryBucket {
  def pack(vecs: IndexedSeq[Array[Float]], ids: IndexedSeq[Long],
           withSuffixNorms: Boolean = false): NaryBucket = {
    require(vecs.nonEmpty)
    val b = PdxLayout.packOne(vecs, ids, vecs.head.length, withSuffixNorms)
    NaryBucket(b.ids, b.n, b.d, PdxLayout.packNary(vecs), b.means, b.suffixSqNorms)
  }

  /** The same vectors as `b` in horizontal layout: `b.data` transposed;
    * ids, means and suffix norms (already laid out `i*(d+1)+j`) are shared.
    */
  def fromBlock(b: PdxBlock): NaryBucket = {
    val data = PdxLayout.packNary((0 until b.n).map(b.vectorAt))
    NaryBucket(b.ids, b.n, b.d, data, b.means, b.suffixSqNorms)
  }
}

/** The original ADSampling/BSA search strategy on horizontal storage:
  * vector-at-a-time, with the pruning bound evaluated every `deltaD`
  * dimensions, interleaved with the distance computation (the branchy
  * pattern §6.3 profiles). τ tightens after every accepted vector.
  *
  * The dimensions are visited in the pruner's order, asked for once per
  * search from the first bucket's means (as PDXearch does); a `null` order
  * is storage order, summed by the unrolled kernel. The first k vectors
  * fill the heap with full distances.
  *
  * Used as the N-ary side of Table 7 and the SIMD-ADS/BSA stand-in, and at
  * Δd = 1 as the vector-at-a-time search whose pruning power Tables 2 and 6
  * report ([[repro.bench.PruningPower]]). `profiler`, when not null, counts
  * operations (see [[SearchProfiler]]).
  */
final class NarySearcher(val k: Int, deltaD: Int, profiler: SearchProfiler = null) {
  require(deltaD > 0, s"deltaD must be positive, got $deltaD")

  def search(buckets: IterableOnce[NaryBucket], rawQuery: Array[Float],
             pruner: Pruner): KnnHeap =
    searchPrepared(buckets, pruner.prepareQuery(rawQuery), new KnnHeap(k))

  def searchPrepared(buckets: IterableOnce[NaryBucket], pq: PreparedQuery,
                     heap: KnnHeap): KnnHeap = {
    val it = buckets.iterator
    val q = pq.query
    var order: Array[Int] = null
    var ordered = false
    while (it.hasNext) {
      val b = it.next()
      val d = b.d
      LinearScan.requireQueryDims(q, d)
      if (!ordered) { order = pq.order(b.means); ordered = true }
      val stride = d + 1
      val suffix = b.suffixSqNorms
      val t0 = if (profiler ne null) System.nanoTime() else 0L
      var dimValues = 0L
      var evals = 0L
      var i = 0
      while (i < b.n) {
        val o = i * d
        val tau = heap.threshold // tightens per accepted vector
        var partial = 0f
        var dv = 0
        var prunedV = false
        if (tau == Float.PositiveInfinity) {
          partial = Kernels.l2Unrolled(b.data, o, q, 0, d)
          dv = d
          dimValues += d
        } else {
          while (dv < d && !prunedV) {
            val nd = math.min(d, dv + deltaD)
            if (order == null) partial += Kernels.l2Unrolled(b.data, o, q, dv, nd)
            else {
              var j = dv
              while (j < nd) {
                val dim = order(j)
                val t = q(dim) - b.data(o + dim)
                partial += t * t
                j += 1
              }
            }
            dimValues += nd - dv
            dv = nd
            if (dv < d) {
              val vs = if (suffix.length == 0) 0f else suffix(i * stride + dv)
              evals += 1
              if (pq.bound(partial, dv, vs) > tau) prunedV = true
            }
          }
        }
        if (!prunedV) heap.push(b.ids(i), partial)
        i += 1
      }
      if (profiler ne null) {
        // Interleaved per-vector segments are too small to time individually;
        // record the whole bucket scan as distance time plus the op counts —
        // the bench splits it with calibrated unit costs (DESIGN.md #5).
        profiler.distanceNanos += System.nanoTime() - t0
        profiler.dimValuesScanned += dimValues
        profiler.boundEvals += evals
      }
    }
    heap
  }
}

/** Exact linear scans over each layout — the non-pruning competitors
  * (FAISS / Milvus / USearch / sklearn stand-ins, DSM, PDX-LINEAR-SCAN,
  * N-ary+Gather of §7).
  */
object LinearScan {

  /** Horizontal scan with the unrolled ("SIMD") kernel: the one N-ary
    * top-k scan, over whole buckets and keyed by the buckets' ids.
    */
  def naryKnn(buckets: IterableOnce[NaryBucket], q: Array[Float], k: Int): KnnHeap = {
    val heap = new KnnHeap(k)
    val it = buckets.iterator
    while (it.hasNext) {
      val b = it.next()
      requireQueryDims(q, b.d)
      var i = 0
      while (i < b.n) {
        heap.push(b.ids(i), Kernels.l2Unrolled(b.data, i * b.d, q, 0, b.d))
        i += 1
      }
    }
    heap
  }

  /** Horizontal scan with the plain scalar kernel (the "vanilla" baseline). */
  def naryScalarKnn(data: Array[Float], n: Int, d: Int, q: Array[Float], k: Int): KnnHeap = {
    requireQueryDims(q, d)
    val heap = new KnnHeap(k)
    var i = 0
    while (i < n) {
      heap.push(i.toLong, Kernels.l2Scalar(data, i * d, q, d))
      i += 1
    }
    heap
  }

  /** Fails unless query `q` has the `d` dimensions of the vectors it is
    * scored against: the kernels read `d` query values, so a longer query
    * would be silently truncated and a shorter one read out of bounds.
    */
  def requireQueryDims(q: Array[Float], d: Int): Unit =
    require(q.length == d, s"query has ${q.length} dimensions but the block has $d")

  /** Full distances of `q` to every vector of `block` into `acc(0 until n)`:
    * the one whole-block PDX scan (no pruning) that the linear scans,
    * PDXearch's START phase and IVF bucket selection share.
    */
  def scoreBlock(block: PdxBlock, q: Array[Float], acc: Array[Float]): Unit = {
    requireQueryDims(q, block.d)
    java.util.Arrays.fill(acc, 0, block.n, 0f)
    Kernels.l2Pdx(block.data, block.n, q, null, 0, block.d, acc)
  }

  /** PDX linear scan: blocks of vectors, dimension-at-a-time, no pruning. */
  def pdxKnn(blocks: IterableOnce[PdxBlock], q: Array[Float], k: Int): KnnHeap = {
    val heap = new KnnHeap(k)
    var acc = Array.emptyFloatArray
    val it = blocks.iterator
    while (it.hasNext) {
      val b = it.next()
      if (acc.length < b.n) acc = new Array[Float](b.n)
      scoreBlock(b, q, acc)
      var i = 0
      while (i < b.n) { heap.push(b.ids(i), acc(i)); i += 1 }
    }
    heap
  }

  /** Fully decomposed (DSM) linear scan: whole-collection columns. */
  def dsmKnn(columns: Array[Array[Float]], n: Int, q: Array[Float], k: Int): KnnHeap = {
    requireQueryDims(q, columns.length)
    val acc = new Array[Float](n)
    Kernels.l2Dsm(columns, n, q, acc)
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
      Kernels.l2NaryGather(data, v0, count, d, q, out)
      var i = 0
      while (i < count) { heap.push((v0 + i).toLong, out(i)); i += 1 }
      v0 += count
    }
    heap
  }
}
