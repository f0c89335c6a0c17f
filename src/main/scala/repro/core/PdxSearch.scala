package repro.core

/** PDXearch (§4): dimension-by-dimension pruned search over PDX blocks.
  *
  * Phases per query:
  *  - START:  the first block(s) are scanned linearly (no pruning) until the
  *    KNN heap holds k candidates, establishing the pruning threshold τ;
  *  - WARMUP: subsequent blocks fetch dimensions at adaptively growing steps
  *    (2, 4, 8, …), computing partial distances for *all* vectors (pruned
  *    ones included — random access would cost more than it saves while
  *    survivors are many) and evaluating the pruning bound in a separate
  *    loop after each step;
  *  - PRUNE:  once the surviving fraction drops to 20% (the sweet spot of
  *    §6.6), positions of survivors are gathered and only those are
  *    scanned for the remaining steps, re-compacting after each bound pass.
  *
  * Survivors that reach the last dimension carry their exact distance
  * (rotations preserve L2) and are merged into the heap, tightening τ for
  * the following blocks. The fixed-Δd search of the original ADSampling/BSA
  * is [[NarySearcher]].
  *
  * `profiler`, when not null, accumulates distance and bound time and
  * operation counts. Instances hold reusable scratch buffers —
  * single-threaded use only (create one searcher per thread/partition).
  */
final class PdxSearcher(val k: Int, profiler: SearchProfiler = null) {
  require(k > 0)

  private final val SelectivityThreshold = 0.2 // surviving fraction that starts PRUNE (§6.6)
  private var acc: Array[Float] = Array.emptyFloatArray
  private var pruned: Array[Int] = Array.emptyIntArray // 1 = pruned; int flags keep the predicate loops branchless
  private var positions: Array[Int] = Array.emptyIntArray

  private def ensureCapacity(n: Int): Unit =
    if (acc.length < n) {
      acc = new Array[Float](n)
      pruned = new Array[Int](n)
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
    while (it.hasNext) {
      val block = it.next()
      LinearScan.requireQueryDims(pq.query, block.d)
      if (!heap.isFull) startBlock(block, pq, heap)
      else scanBlock(block, pq, heap)
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

  /** WARMUP + PRUNE phases for one block under an established threshold. */
  private def scanBlock(block: PdxBlock, pq: PreparedQuery, heap: KnnHeap): Unit = {
    val n = block.n
    val d = block.d
    ensureCapacity(n)
    java.util.Arrays.fill(acc, 0, n, 0f)
    java.util.Arrays.fill(pruned, 0, n, 0)
    val order = pq.order(block.means)
    val tau = heap.threshold
    val suffix = block.suffixSqNorms
    val hasSuffix = block.hasSuffixNorms
    val stride = d + 1
    var aliveCount = n
    var visited = 0
    var step = math.max(2, math.min(pq.minPruneDims, d - 1))
    val cut = math.max(1.0, n * SelectivityThreshold)

    // ---- WARMUP: all vectors computed; bounds evaluated in a second loop.
    while (visited < d && aliveCount > cut) {
      val next = math.min(d, visited + step)
      var t0 = if (profiler ne null) System.nanoTime() else 0L
      Kernels.l2Pdx(block.data, n, pq.query, order, visited, next, acc)
      if (profiler ne null) {
        profiler.distanceNanos += System.nanoTime() - t0
        profiler.dimValuesScanned += n.toLong * (next - visited)
      }
      visited = next
      step *= 2
      if (visited < d) {
        t0 = if (profiler ne null) System.nanoTime() else 0L
        var i = 0
        var prunedCnt = 0
        if (pq.isPartialBound) {
          // PDX-BOND fast path: the bound IS the accumulated distance.
          // Pure flag arithmetic — no data-dependent branches.
          while (i < n) {
            val f = pruned(i) | (if (acc(i) > tau) 1 else 0)
            pruned(i) = f
            prunedCnt += f
            i += 1
          }
        } else {
          // Generic bound: guard on the flag — the bound call itself is the
          // expensive part for non-trivial pruners, not the branch.
          while (i < n) {
            var f = pruned(i)
            if (f == 0) {
              val vs = if (hasSuffix) suffix(i * stride + visited) else 0f
              if (pq.bound(acc(i), visited, vs) > tau) { f = 1; pruned(i) = 1 }
            }
            prunedCnt += f
            i += 1
          }
        }
        aliveCount = n - prunedCnt
        if (profiler ne null) {
          profiler.boundsNanos += System.nanoTime() - t0
          profiler.boundEvals += n
        }
      }
    }

    if (visited == d) {
      // Reached the end during WARMUP: merge all survivors.
      var i = 0
      while (i < n) {
        if (pruned(i) == 0) heap.push(block.ids(i), acc(i))
        i += 1
      }
      return
    }

    // ---- PRUNE: gather survivor positions, scan only those.
    var posCount = 0
    var i = 0
    while (i < n) {
      if (pruned(i) == 0) { positions(posCount) = i; posCount += 1 }
      i += 1
    }
    while (visited < d && posCount > 0) {
      val next = math.min(d, visited + step)
      var t0 = if (profiler ne null) System.nanoTime() else 0L
      Kernels.l2PdxPositions(block.data, n, pq.query, order, visited, next,
                             positions, posCount, acc)
      if (profiler ne null) {
        profiler.distanceNanos += System.nanoTime() - t0
        profiler.dimValuesScanned += posCount.toLong * (next - visited)
      }
      visited = next
      step *= 2
      if (visited < d) {
        t0 = if (profiler ne null) System.nanoTime() else 0L
        var w = 0
        var p = 0
        if (pq.isPartialBound) {
          while (p < posCount) {
            val pos = positions(p)
            if (acc(pos) <= tau) { positions(w) = pos; w += 1 }
            p += 1
          }
        } else {
          while (p < posCount) {
            val pos = positions(p)
            val vs = if (hasSuffix) suffix(pos * stride + visited) else 0f
            if (pq.bound(acc(pos), visited, vs) <= tau) { positions(w) = pos; w += 1 }
            p += 1
          }
        }
        if (profiler ne null) {
          profiler.boundsNanos += System.nanoTime() - t0
          profiler.boundEvals += posCount
        }
        posCount = w
      }
    }
    var p = 0
    while (p < posCount) {
      val pos = positions(p)
      heap.push(block.ids(pos), acc(pos))
      p += 1
    }
  }
}
