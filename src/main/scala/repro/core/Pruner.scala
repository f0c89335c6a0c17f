package repro.core

import java.util.stream.IntStream
import scala.collection.immutable.ArraySeq

/** A per-query state machine produced by a [[Pruner]].
  *
  * The contract with PDXearch / the N-ary searcher: after a vector has
  * accumulated `partial` distance over the first `dimsVisited` dimensions of
  * the search-space order, `bound(...)` returns a (possibly probabilistic)
  * lower-bound estimate of its full distance; the vector is pruned iff the
  * bound exceeds the current k-th best distance τ. Exact pruners return true
  * lower bounds (no recall loss); approximate pruners (ADSampling, BSA with
  * m < 1) may overshoot, trading recall for speed exactly as in the paper.
  */
trait PreparedQuery {

  /** The query mapped into search space (rotated for ADSampling/BSA). */
  def query: Array[Float]

  /** Query-aware dimension visit order given dimension means; `null`
    * means sequential access (ADSampling, BSA). A pure function of `means`:
    * a search asks for it once and visits every block in that order
    * (PDXearch passes the means of the first block it prunes,
    * [[NarySearcher]] those of the first bucket it searches).
    */
  def order(means: Array[Float]): Array[Int]

  /** Lower-bound estimate after `dimsVisited` dims with partial distance
    * `partial`; `vecSuffixSq` is the vector's suffix squared norm from
    * dimension `dimsVisited` (0 when the pruner does not need it —
    * see [[Pruner.needsSuffixNorms]]).
    */
  def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float

  /** Dims the algorithm wants scanned before its first pruning attempt —
    * the Δd of the ADSampling/BSA dual-block layout (§2.3). Neither searcher
    * asks for the bound below it: PDXearch sizes its first WARMUP step to at
    * least this, and [[NarySearcher]] skips the earlier checkpoints.
    * 0 = prune from the first step.
    */
  def minPruneDims: Int = 0
}

/** A dimension-pruning strategy: data-space transform + per-query bound.
  * Implementations: [[repro.prune.AdSampling]], [[repro.prune.Bsa]],
  * [[repro.prune.Bond]].
  */
trait Pruner extends Serializable {
  def name: String

  /** Dimensionality this pruner was built for. */
  def d: Int

  /** Whether blocks must materialize per-vector suffix squared norms. */
  def needsSuffixNorms: Boolean = false

  /** Map one raw-space vector into search space (identity for raw-space
    * pruners). Pruners that transform check the vector's length here.
    */
  def transformVector(v: Array[Float]): Array[Float] = v

  /** Map the collection into search space, one [[transformVector]] per
    * vector, in input order; when every vector maps to itself, `vecs` itself
    * is returned. Every vector must have `d` values (checked first, naming
    * the vector). The vectors are split over the threads of the ForkJoin
    * pool that calls it, so `transformVector` must be thread-safe: the
    * transforms here only read the fitted state and allocate their output.
    */
  final def transformData(vecs: IndexedSeq[Array[Float]]): IndexedSeq[Array[Float]] = {
    vecs.indices.foreach { i =>
      require(vecs(i).length == d,
              s"data vector $i has ${vecs(i).length} dimensions but the pruner has $d")
    }
    val out = new Array[Array[Float]](vecs.length)
    IntStream.range(0, vecs.length).parallel().forEach(i => out(i) = transformVector(vecs(i)))
    if (out.corresponds(vecs)(_ eq _)) vecs else ArraySeq.unsafeWrapArray(out)
  }

  def prepareQuery(q: Array[Float]): PreparedQuery
}
