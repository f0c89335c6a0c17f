package repro.bench

import scala.collection.mutable
import repro.data.VectorData
import repro.data.VectorData.{Dataset, DatasetSpec}
import repro.prune.{AdSampling, Bsa}

/** Memoized datasets and pruner search spaces. Building a D=1536 rotation
  * (Gram–Schmidt or Jacobi) and rotating 10K vectors costs tens of seconds,
  * and the tables of one suite share datasets, so a process-wide cache
  * keeps the runtime sane. build.sbt forks one JVM per bench suite, so the
  * cache lives for one bench suite (or for the whole root test run, which
  * shares one JVM). Keys include the full spec so test-scale and
  * bench-scale coexist.
  */
object DatasetCache {

  private val datasets = mutable.Map.empty[DatasetSpec, Dataset]
  private val adsSpaces = mutable.Map.empty[DatasetSpec, (AdSampling, IndexedSeq[Array[Float]])]
  private val bsaSpaces = mutable.Map.empty[(DatasetSpec, Double), (Bsa, IndexedSeq[Array[Float]])]
  private val truths = mutable.Map.empty[(DatasetSpec, Int), Array[Array[Long]]]

  def dataset(spec: DatasetSpec): Dataset =
    synchronized(datasets.getOrElseUpdate(spec, VectorData.generate(spec)))

  /** ADSampling pruner (ε0 = 2.1) + the dataset rotated into its space. */
  def adsSpace(spec: DatasetSpec): (AdSampling, IndexedSeq[Array[Float]]) =
    synchronized(adsSpaces.getOrElseUpdate(spec, {
      val ds = dataset(spec)
      val pruner = new AdSampling(spec.d, seed = spec.seed * 31 + 1)
      (pruner, pruner.transformData(ds.vectors))
    }))

  /** BSA pruner + the dataset in PCA space. Jacobi sweeps capped at 4: the
    * energy concentration pruning needs converges in the first sweeps.
    */
  def bsaSpace(spec: DatasetSpec, multiplier: Double = 0.75): (Bsa, IndexedSeq[Array[Float]]) =
    synchronized(bsaSpaces.getOrElseUpdate((spec, multiplier), {
      val ds = dataset(spec)
      val pruner = Bsa.fit(ds.vectors, multiplier, seed = spec.seed * 31 + 2, maxSweeps = 4)
      (pruner, pruner.transformData(ds.vectors))
    }))

  def groundTruth(spec: DatasetSpec, k: Int): Array[Array[Long]] =
    synchronized(truths.getOrElseUpdate((spec, k), {
      val ds = dataset(spec)
      VectorData.groundTruth(ds.vectors, ds.queries, k)
    }))
}
