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
      siftDown(0)
    }
  }

  private def siftUp(i0: Int): Unit = {
    var i = i0
    while (i > 0) {
      val parent = (i - 1) >> 1
      if (after(i, parent)) { swap(i, parent); i = parent }
      else return
    }
  }

  private def siftDown(i0: Int): Unit = {
    var i = i0
    while (true) {
      val l = 2 * i + 1
      val r = l + 1
      var largest = i
      if (l < count && after(l, largest)) largest = l
      if (r < count && after(r, largest)) largest = r
      if (largest == i) return
      swap(i, largest)
      i = largest
    }
  }

  /** Entry i comes after entry j in (distance, id) order. */
  @inline private def after(i: Int, j: Int): Boolean =
    dists(i) > dists(j) || (dists(i) == dists(j) && idArr(i) > idArr(j))

  @inline private def swap(i: Int, j: Int): Unit = {
    val td = dists(i); dists(i) = dists(j); dists(j) = td
    val ti = idArr(i); idArr(i) = idArr(j); idArr(j) = ti
  }

  /** Result sorted ascending by (distance, id) — deterministic output. */
  def sorted: IndexedSeq[(Long, Float)] =
    (0 until count).map(i => (idArr(i), dists(i))).sortBy { case (id, d) => (d, id) }

  def idsSorted: IndexedSeq[Long] = sorted.map(_._1)
}
