package repro.core

/** One IVF bucket (or partition) in the conventional horizontal layout,
  * derived from a PDX block: vector i occupies `data(i*d until (i+1)*d)`,
  * the block's data transposed, and the only array the bucket owns. `ids`,
  * `n`, `d`, `means` (PDX-BOND's order) and `suffixSqNorms` (BSA's bound,
  * already laid out `i*(d+1)+j`) are the block's own, checked by the block.
  */
final class NaryBucket private (block: PdxBlock) {
  val ids: Array[Long] = block.ids
  val n: Int = block.n
  val d: Int = block.d
  val means: Array[Float] = block.means
  val suffixSqNorms: Array[Float] = block.suffixSqNorms
  val data: Array[Float] = PdxLayout.packNary((0 until n).map(block.vectorAt))
}

object NaryBucket {
  def apply(block: PdxBlock): NaryBucket = new NaryBucket(block)
}

/** The original ADSampling/BSA search strategy on horizontal storage:
  * vector-at-a-time, with the pruning bound evaluated every `deltaD`
  * dimensions, interleaved with the distance computation (the branchy
  * pattern §6.3 profiles). τ tightens after every accepted vector.
  *
  * The dimensions are visited in the pruner's order, asked for once per
  * search from the first bucket's means (as PDXearch does); a `null` order
  * is storage order, summed by the unrolled kernel. The first k vectors
  * fill the heap with full distances. Like PDXearch, it asks for no bound
  * before `pq.minPruneDims` dimensions are visited.
  *
  * Used as the N-ary side of Table 7 and the SIMD-ADS/BSA stand-in, over
  * buckets derived from the IVF index's PDX blocks (`IvfIndex.searchNary`,
  * which picks them with the PDX centroid scan that `searchPdx` uses), and
  * at Δd = 1 as the vector-at-a-time search whose pruning power Tables 2
  * and 6 report ([[repro.bench.PruningPower]]). `profiler`, when not null,
  * only counts operations (see [[SearchProfiler]]); `IvfIndex.searchNary`
  * adds its prep and bucket time.
  */
final class NarySearcher(val k: Int, deltaD: Int, val profiler: SearchProfiler = null) {
  require(k > 0, s"k must be positive, got $k")
  require(deltaD > 0, s"deltaD must be positive, got $deltaD")

  def search(buckets: IterableOnce[NaryBucket], rawQuery: Array[Float],
             pruner: Pruner): KnnHeap = {
    LinearScan.requireFiniteQuery(rawQuery)
    searchPrepared(buckets, pruner.prepareQuery(rawQuery), new KnnHeap(k))
  }

  def searchPrepared(buckets: IterableOnce[NaryBucket], pq: PreparedQuery,
                     heap: KnnHeap): KnnHeap = {
    val it = buckets.iterator
    val q = pq.query
    val minPrune = pq.minPruneDims
    var order: Array[Int] = null
    var ordered = false
    while (it.hasNext) {
      val b = it.next()
      val d = b.d
      LinearScan.requireQueryDims(q, d)
      if (!ordered) { order = pq.order(b.means); ordered = true }
      val stride = d + 1
      val suffix = b.suffixSqNorms
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
            if (dv < d && dv >= minPrune) {
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
        profiler.dimValuesScanned += dimValues
        profiler.boundEvals += evals
      }
    }
    heap
  }
}

/** PDX-LINEAR-SCAN — the one exact scan the system runs, for linear search,
  * PDXearch's START phase, IVF bucket selection and k-means assignment —
  * and the query checks every search entry point shares. The exact-search
  * competitors over other layouts (the horizontal unrolled and scalar
  * scans, DSM and N-ary+Gather of §7) live in
  * [[repro.bench.ExactSearchBench]], which alone runs them.
  */
object LinearScan {

  /** Fails unless query `q` has the `d` dimensions of the vectors it is
    * scored against: the kernels read `d` query values, so a longer query
    * would be silently truncated and a shorter one read out of bounds.
    */
  def requireQueryDims(q: Array[Float], d: Int): Unit =
    require(q.length == d, s"query has ${q.length} dimensions but the block has $d")

  /** Fails on the first NaN or infinite value of query `q`, naming its
    * position: one NaN makes every distance NaN, `!(NaN > τ)` keeps every
    * vector alive, and a rotation spreads it to every coordinate, so the
    * searches check the raw query once, before preparing it.
    */
  def requireFiniteQuery(q: Array[Float]): Unit = {
    var i = 0
    while (i < q.length) {
      val x = q(i)
      require(!x.isNaN && !x.isInfinite, s"query value at position $i is $x; it must be finite")
      i += 1
    }
  }

  /** Full distances of `q` to every vector of `block` into
    * `scratch.acc(0 until n)`, growing `scratch` to the block: the one
    * whole-block PDX scan (no pruning) that the linear scans, PDXearch's
    * START phase and IVF bucket selection share.
    */
  def scoreBlock(block: PdxBlock, q: Array[Float], scratch: PdxScratch): Unit = {
    requireQueryDims(q, block.d)
    scratch.ensureCapacity(block.n)
    java.util.Arrays.fill(scratch.acc, 0, block.n, 0f)
    Kernels.l2Pdx(block.data, block.n, q, null, 0, block.d, scratch)
  }

  /** PDX linear scan: blocks of vectors, dimension-at-a-time, no pruning.
    * Each block is read only until the next one is taken, so an iterator
    * may refill one set of arrays per block (Spark's per-task decoder does).
    */
  def pdxKnn(blocks: IterableOnce[PdxBlock], q: Array[Float], k: Int): KnnHeap = {
    val heap = new KnnHeap(k)
    val scratch = new PdxScratch
    val it = blocks.iterator
    while (it.hasNext) {
      val b = it.next()
      scoreBlock(b, q, scratch)
      val acc = scratch.acc
      var i = 0
      while (i < b.n) { heap.push(b.ids(i), acc(i)); i += 1 }
    }
    heap
  }
}
