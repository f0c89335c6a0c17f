package repro.core

/** One PDX block: `n` vectors of dimensionality `d` stored dimension-major
  * (`data(dim * n + i)` is dimension `dim` of the block's i-th vector),
  * analogous to a Parquet rowgroup with a vertical layout inside (Figure 1).
  *
  * Block metadata (§3 "Metadata per block"):
  *  - `means`:  per-dimension mean of the block's vectors — drives PDX-BOND's
  *    query-aware dimension ordering;
  *  - `suffixSqNorms`: optional per-vector suffix squared norms
  *    `suffixSqNorms(i * (d+1) + j) = Σ_{t≥j} data(t,i)²` — the BSA bound's
  *    per-vector metadata (empty array when the pruner does not need it).
  */
final case class PdxBlock(
    ids: Array[Long],
    n: Int,
    d: Int,
    data: Array[Float],
    means: Array[Float],
    suffixSqNorms: Array[Float]
) {
  require(ids.length == n, s"ids ${ids.length} != n $n")
  require(data.length == n * d, s"data ${data.length} != n*d ${n * d}")
  require(means.length == d, s"means ${means.length} != d $d")
  require(
    suffixSqNorms.isEmpty || suffixSqNorms.length == n * (d + 1),
    s"suffix ${suffixSqNorms.length} != n*(d+1) ${n * (d + 1)}"
  )

  def hasSuffixNorms: Boolean = suffixSqNorms.nonEmpty

  /** Suffix squared norm of vector i from dimension j (inclusive). */
  @inline def suffix(i: Int, j: Int): Float = suffixSqNorms(i * (d + 1) + j)

  /** Reconstruct the i-th vector horizontally. */
  def vectorAt(i: Int): Array[Float] = {
    val out = new Array[Float](d)
    var dim = 0
    while (dim < d) { out(dim) = data(dim * n + i); dim += 1 }
    out
  }
}

object PdxLayout {

  /** Default processing-block size — 64 vectors at-a-time performed best
    * across all ISAs in the paper (Table 5).
    */
  val DefaultBlockSize = 64

  /** Pack `vecs` into PDX blocks of at most `blockSize` (> 0) vectors,
    * preserving order. `withSuffixNorms` materializes the BSA metadata
    * ([[suffixSqNorms]] per vector).
    */
  def pack(vecs: IndexedSeq[Array[Float]], ids: IndexedSeq[Long],
           blockSize: Int = DefaultBlockSize,
           withSuffixNorms: Boolean = false): Vector[PdxBlock] = {
    require(blockSize > 0, s"blockSize must be positive, got $blockSize")
    require(vecs.length == ids.length, "vecs / ids length mismatch")
    if (vecs.isEmpty) return Vector.empty
    val d = vecs.head.length
    vecs.indices.iterator
      .grouped(blockSize)
      .map { idxs =>
        packOne(idxs.map(vecs), idxs.map(ids), d, withSuffixNorms)
      }
      .toVector
  }

  /** Pack one group of vectors into a single block (bucket = block for IVF).
    * The group must not be empty, and every vector must have `d` values, all
    * finite: a NaN distance is never `> τ`, so a NaN vector would survive
    * every pruning step and break the (distance, id) order of the answers.
    * Both vector failures name the vector's id. The means are [[globalMeans]]
    * of the group.
    */
  def packOne(group: Seq[Array[Float]], groupIds: Seq[Long], d: Int,
              withSuffixNorms: Boolean): PdxBlock = {
    val n = group.length
    require(n > 0, "a PDX block cannot hold 0 vectors")
    val ids = groupIds.toArray
    val data = new Array[Float](n * d)
    val suffix = if (withSuffixNorms) new Array[Float](n * (d + 1)) else Array.emptyFloatArray
    var i = 0
    group.foreach { v =>
      require(v.length == d, s"ragged vector: vector ${ids(i)} has ${v.length} dimensions but the block has $d")
      var dim = 0
      while (dim < d) {
        val x = v(dim)
        require(java.lang.Float.isFinite(x), s"vector ${ids(i)} has the non-finite value $x at position $dim")
        data(dim * n + i) = x
        dim += 1
      }
      if (withSuffixNorms) suffixSqNorms(v, suffix, i * (d + 1))
      i += 1
    }
    PdxBlock(ids, n, d, data, globalMeans(group), suffix)
  }

  /** Suffix squared norms of `v` into `out(base until base + d + 1)`:
    * `out(base + j) = Σ_{t≥j} v(t)²`, accumulated in double from the last
    * dimension down and stored float. The one routine behind both the
    * per-vector block metadata and the query side of the BSA bound.
    */
  def suffixSqNorms(v: Array[Float], out: Array[Float], base: Int): Unit = {
    val d = v.length
    var acc = 0.0
    out(base + d) = 0f
    var j = d - 1
    while (j >= 0) { acc += v(j).toDouble * v(j); out(base + j) = acc.toFloat; j -= 1 }
  }

  /** Per-vector query suffix squared norms for the BSA bound:
    * out(j) = Σ_{t≥j} q(t)², length d+1.
    */
  def querySuffixSqNorms(q: Array[Float]): Array[Float] = {
    val out = new Array[Float](q.length + 1)
    suffixSqNorms(q, out, 0)
    out
  }

  /** Flatten vectors into one horizontal (N-ary) array: vector i occupies
    * [i*d, (i+1)*d). The conventional layout the paper compares against.
    */
  def packNary(vecs: IndexedSeq[Array[Float]]): Array[Float] = {
    if (vecs.isEmpty) return Array.emptyFloatArray
    val d = vecs.head.length
    val out = new Array[Float](vecs.length * d)
    var i = 0
    while (i < vecs.length) {
      System.arraycopy(vecs(i), 0, out, i * d, d)
      i += 1
    }
    out
  }

  /** Per-dimension means of a collection: summed in double in the
    * collection's order, divided by its size and stored float. The one means
    * routine, behind every block's `means` and BSA's centering.
    */
  def globalMeans(vecs: Seq[Array[Float]]): Array[Float] = {
    require(vecs.nonEmpty, "globalMeans of an empty collection")
    val d = vecs.head.length
    val acc = new Array[Double](d)
    vecs.foreach { v =>
      var dim = 0
      while (dim < d) { acc(dim) += v(dim); dim += 1 }
    }
    val out = new Array[Float](d)
    var dim = 0
    while (dim < d) { out(dim) = (acc(dim) / vecs.length).toFloat; dim += 1 }
    out
  }
}
