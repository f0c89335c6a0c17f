package repro.core

/** Bounded binary max-heap over (id, distance) for K-nearest-neighbour
  * candidates — the paper's "KNN candidates list (usually a max-heap)".
  *
  * It keeps the k smallest by (distance, id), the one total order of every
  * search path, so results do not depend on arrival order even with
  * duplicate vectors. `threshold` is the pruning bound τ: the current k-th
  * best distance once the heap is full, +∞ before. Searchers prune only on
  * `bound > τ`, so a candidate at distance τ reaches `push` and its id
  * decides.
  */
final class KnnHeap(val k: Int) {
  require(k > 0, "k must be positive")
  private val dists = new Array[Float](k)
  private val idArr = new Array[Long](k)
  private var count = 0

  def size: Int = count
  def isFull: Boolean = count == k

  /** Current pruning threshold (k-th best distance, or +∞ if not full). */
  def threshold: Float = if (count == k) dists(0) else Float.PositiveInfinity

  /** Offer a candidate; at distance τ it replaces the top only if its id
    * is smaller.
    */
  def push(id: Long, dist: Float): Unit = {
    if (count < k) {
      dists(count) = dist
      idArr(count) = id
      count += 1
      siftUp(count - 1)
    } else if (dist < dists(0) || (dist == dists(0) && id < idArr(0))) {
      dists(0) = dist
      idArr(0) = id
      KnnHeap.siftDown(dists, idArr, 0, count)
    }
  }

  private def siftUp(i0: Int): Unit = {
    var i = i0
    while (i > 0) {
      val parent = (i - 1) >> 1
      if (KnnHeap.after(dists, idArr, i, parent)) { KnnHeap.swap(dists, idArr, i, parent); i = parent }
      else return
    }
  }

  /** Heapsort of a copy of the entries, on the primitive arrays: the ids and
    * distances ascending by (distance, id).
    */
  private def sortedArrays(): (Array[Long], Array[Float]) = {
    val ds = java.util.Arrays.copyOf(dists, count)
    val is = java.util.Arrays.copyOf(idArr, count)
    var end = count - 1
    while (end > 0) {
      KnnHeap.swap(ds, is, 0, end)
      KnnHeap.siftDown(ds, is, 0, end)
      end -= 1
    }
    (is, ds)
  }

  /** Result sorted ascending by (distance, id) — deterministic output. */
  def sorted: IndexedSeq[(Long, Float)] = {
    val (is, ds) = sortedArrays()
    IndexedSeq.tabulate(count)(i => (is(i), ds(i)))
  }

  def idsSorted: IndexedSeq[Long] = scala.collection.immutable.ArraySeq.unsafeWrapArray(sortedArrays()._1)
}

private object KnnHeap {

  /** Restores the max-heap below `i0` over entries `0 until count`. */
  def siftDown(dists: Array[Float], ids: Array[Long], i0: Int, count: Int): Unit = {
    var i = i0
    while (true) {
      val l = 2 * i + 1
      val r = l + 1
      var largest = i
      if (l < count && after(dists, ids, l, largest)) largest = l
      if (r < count && after(dists, ids, r, largest)) largest = r
      if (largest == i) return
      swap(dists, ids, i, largest)
      i = largest
    }
  }

  /** Entry i comes after entry j in (distance, id) order. */
  @inline def after(dists: Array[Float], ids: Array[Long], i: Int, j: Int): Boolean =
    dists(i) > dists(j) || (dists(i) == dists(j) && ids(i) > ids(j))

  @inline def swap(dists: Array[Float], ids: Array[Long], i: Int, j: Int): Unit = {
    val td = dists(i); dists(i) = dists(j); dists(j) = td
    val ti = ids(i); ids(i) = ids(j); ids(j) = ti
  }
}
