package repro.core

/** PDXearch (§4): dimension-by-dimension pruned search over PDX blocks.
  *
  * Phases per query:
  *  - START:  the first block(s) are scanned linearly (no pruning) until the
  *    KNN heap holds k candidates, establishing the pruning threshold τ;
  *  - WARMUP: later blocks fetch dimensions at adaptively growing steps
  *    (2, 4, 8, …), computing partial distances for *all* vectors (pruned
  *    ones included — random access would cost more than it saves while
  *    survivors are many);
  *  - PRUNE:  once the surviving fraction drops to 20% (the sweet spot of
  *    §6.6), only the survivors' positions are scanned.
  *
  * Each block keeps one survivor list, its positions in index order. After
  * every step one pass evaluates the bound and compacts the list; WARMUP and
  * PRUNE differ only in the kernel that fills the next step. Survivors that
  * reach the last dimension carry their exact distance (rotations preserve
  * L2) and are merged into the heap, tightening τ for the following blocks.
  * The dimension order is asked for once per search, from the first block
  * that is pruned. The fixed-Δd search of the original ADSampling/BSA is
  * [[NarySearcher]].
  *
  * `profiler`, when not null, accumulates distance and bound time and
  * operation counts. Instances hold reusable scratch buffers —
  * single-threaded use only (create one searcher per thread/partition).
  */
final class PdxSearcher(val k: Int, profiler: SearchProfiler = null) {
  require(k > 0, s"k must be positive, got $k")

  private final val SelectivityThreshold = 0.2 // surviving fraction that starts PRUNE (§6.6)
  private var acc: Array[Float] = Array.emptyFloatArray
  private var positions: Array[Int] = Array.emptyIntArray

  private def ensureCapacity(n: Int): Unit =
    if (acc.length < n) {
      acc = new Array[Float](n)
      positions = new Array[Int](n)
    }

  /** Search the given blocks in order (for IVF: nearest buckets first). */
  def search(blocks: IterableOnce[PdxBlock], rawQuery: Array[Float],
             pruner: Pruner): KnnHeap =
    searchPrepared(blocks, pruner.prepareQuery(rawQuery), new KnnHeap(k))

  /** Search with an already-prepared query, merging into `heap` (lets IVF
    * prepare the query once for bucket selection and propagate τ).
    */
  def searchPrepared(blocks: IterableOnce[PdxBlock], pq: PreparedQuery,
                     heap: KnnHeap): KnnHeap = {
    val it = blocks.iterator
    var order: Array[Int] = null
    var ordered = false
    while (it.hasNext) {
      val block = it.next()
      LinearScan.requireQueryDims(pq.query, block.d)
      if (!heap.isFull) startBlock(block, pq, heap)
      else {
        if (!ordered) { order = pq.order(block.means); ordered = true }
        scanBlock(block, pq, order, heap)
      }
    }
    heap
  }

  /** START: full linear scan of a block (no pruning; establishes τ). */
  private def startBlock(block: PdxBlock, pq: PreparedQuery, heap: KnnHeap): Unit = {
    val n = block.n
    ensureCapacity(n)
    val t0 = if (profiler ne null) System.nanoTime() else 0L
    // The full sum is order-independent; use the sequential scan.
    LinearScan.scoreBlock(block, pq.query, acc)
    if (profiler ne null) {
      profiler.distanceNanos += System.nanoTime() - t0
      profiler.dimValuesScanned += n.toLong * block.d
    }
    var i = 0
    while (i < n) { heap.push(block.ids(i), acc(i)); i += 1 }
  }

  /** WARMUP + PRUNE for one block under an established threshold. */
  private def scanBlock(block: PdxBlock, pq: PreparedQuery, order: Array[Int],
                        heap: KnnHeap): Unit = {
    val n = block.n
    val d = block.d
    ensureCapacity(n)
    java.util.Arrays.fill(acc, 0, n, 0f)
    var i = 0
    while (i < n) { positions(i) = i; i += 1 }
    var alive = n
    val tau = heap.threshold
    val suffix = block.suffixSqNorms
    val hasSuffix = block.hasSuffixNorms
    val stride = d + 1
    var visited = 0
    var step = math.max(2, math.min(pq.minPruneDims, d - 1))
    val cut = math.max(1.0, n * SelectivityThreshold)

    while (visited < d && alive > 0) {
      val next = math.min(d, visited + step)
      // WARMUP while survivors are many; `alive` only shrinks, so PRUNE is final.
      val warmup = alive > cut
      var t0 = if (profiler ne null) System.nanoTime() else 0L
      if (warmup) Kernels.l2Pdx(block.data, n, pq.query, order, visited, next, acc)
      else Kernels.l2PdxPositions(block.data, n, pq.query, order, visited, next,
                                  positions, alive, acc)
      if (profiler ne null) {
        profiler.distanceNanos += System.nanoTime() - t0
        profiler.dimValuesScanned += (if (warmup) n else alive).toLong * (next - visited)
      }
      visited = next
      step *= 2
      if (visited < d) {
        // Keep a position iff !(bound > τ), compacting the list in place.
        t0 = if (profiler ne null) System.nanoTime() else 0L
        var w = 0
        var p = 0
        if (pq.isPartialBound) {
          // PDX-BOND fast path: the bound IS the accumulated distance.
          // The write is unconditional, so the loop has no data-dependent branch.
          while (p < alive) {
            val pos = positions(p)
            positions(w) = pos
            w += (if (acc(pos) > tau) 0 else 1)
            p += 1
          }
        } else {
          while (p < alive) {
            val pos = positions(p)
            val vs = if (hasSuffix) suffix(pos * stride + visited) else 0f
            if (!(pq.bound(acc(pos), visited, vs) > tau)) { positions(w) = pos; w += 1 }
            p += 1
          }
        }
        if (profiler ne null) {
          profiler.boundsNanos += System.nanoTime() - t0
          profiler.boundEvals += alive
        }
        alive = w
      }
    }
    var p = 0
    while (p < alive) {
      val pos = positions(p)
      heap.push(block.ids(pos), acc(pos))
      p += 1
    }
  }
}
